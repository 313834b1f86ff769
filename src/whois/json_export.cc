#include "whois/json_export.h"

#include "util/json.h"

namespace whoiscrf::whois {

namespace {

void WriteContact(util::JsonWriter& json, const Contact& contact) {
  json.BeginObject();
  json.FieldIfNonEmpty("name", contact.name);
  json.FieldIfNonEmpty("id", contact.id);
  json.FieldIfNonEmpty("organization", contact.org);
  if (!contact.street.empty()) {
    json.Key("street").BeginArray();
    for (const auto& line : contact.street) json.String(line);
    json.EndArray();
  }
  json.FieldIfNonEmpty("city", contact.city);
  json.FieldIfNonEmpty("state", contact.state);
  json.FieldIfNonEmpty("postalCode", contact.postcode);
  json.FieldIfNonEmpty("country", contact.country);
  json.FieldIfNonEmpty("phone", contact.phone);
  json.FieldIfNonEmpty("fax", contact.fax);
  json.FieldIfNonEmpty("email", contact.email);
  if (!contact.other.empty()) {
    json.Key("other").BeginArray();
    for (const auto& line : contact.other) json.String(line);
    json.EndArray();
  }
  json.EndObject();
}

// ToJson's output size when no value needs escaping, rounded up: each
// field is its value plus at most kFieldBytes of key, quotes, colon and
// comma; each array element adds quotes and a comma.
constexpr size_t kFieldBytes = 18;  // longest key is 12 bytes

size_t FieldBytes(const std::string& value) {
  return value.empty() ? 0 : value.size() + kFieldBytes;
}

size_t FieldBytes(const std::vector<std::string>& values) {
  if (values.empty()) return 0;
  size_t bytes = kFieldBytes;
  for (const std::string& v : values) bytes += v.size() + 3;
  return bytes;
}

size_t JsonBytes(const ParsedWhois& p) {
  const Contact& c = p.registrant;
  return 64 +  // braces, the registrant key, parseLogProb and its number
         FieldBytes(p.domain_name) + FieldBytes(p.registrar) +
         FieldBytes(p.registrar_url) + FieldBytes(p.whois_server) +
         FieldBytes(p.created) + FieldBytes(p.updated) +
         FieldBytes(p.expires) + FieldBytes(p.name_servers) +
         FieldBytes(p.statuses) + FieldBytes(c.name) + FieldBytes(c.id) +
         FieldBytes(c.org) + FieldBytes(c.street) + FieldBytes(c.city) +
         FieldBytes(c.state) + FieldBytes(c.postcode) +
         FieldBytes(c.country) + FieldBytes(c.phone) + FieldBytes(c.fax) +
         FieldBytes(c.email) + FieldBytes(c.other);
}

}  // namespace

std::string ToJson(const ParsedWhois& parsed) {
  util::JsonWriter json(JsonBytes(parsed));
  json.BeginObject();
  json.FieldIfNonEmpty("domainName", parsed.domain_name);
  json.FieldIfNonEmpty("registrar", parsed.registrar);
  json.FieldIfNonEmpty("registrarUrl", parsed.registrar_url);
  json.FieldIfNonEmpty("whoisServer", parsed.whois_server);
  json.FieldIfNonEmpty("created", parsed.created);
  json.FieldIfNonEmpty("updated", parsed.updated);
  json.FieldIfNonEmpty("expires", parsed.expires);
  if (!parsed.name_servers.empty()) {
    json.Key("nameServers").BeginArray();
    for (const auto& ns : parsed.name_servers) json.String(ns);
    json.EndArray();
  }
  if (!parsed.statuses.empty()) {
    json.Key("statuses").BeginArray();
    for (const auto& status : parsed.statuses) json.String(status);
    json.EndArray();
  }
  if (!parsed.registrant.Empty()) {
    json.Key("registrant");
    WriteContact(json, parsed.registrant);
  }
  json.Key("parseLogProb").Double(parsed.log_prob);
  json.EndObject();
  return json.Release();
}

std::string ToRdapJson(const ParsedWhois& parsed) {
  util::JsonWriter json;
  json.BeginObject();
  json.Field("objectClassName", "domain");
  json.FieldIfNonEmpty("ldhName", parsed.domain_name);

  // Events (registration / last changed / expiration).
  json.Key("events").BeginArray();
  auto event = [&json](std::string_view action, const std::string& date) {
    if (date.empty()) return;
    json.BeginObject();
    json.Field("eventAction", action);
    json.Field("eventDate", date);
    json.EndObject();
  };
  event("registration", parsed.created);
  event("last changed", parsed.updated);
  event("expiration", parsed.expires);
  json.EndArray();

  if (!parsed.statuses.empty()) {
    json.Key("status").BeginArray();
    for (const auto& status : parsed.statuses) json.String(status);
    json.EndArray();
  }

  if (!parsed.name_servers.empty()) {
    json.Key("nameservers").BeginArray();
    for (const auto& ns : parsed.name_servers) {
      json.BeginObject();
      json.Field("objectClassName", "nameserver");
      json.Field("ldhName", ns);
      json.EndObject();
    }
    json.EndArray();
  }

  json.Key("entities").BeginArray();
  if (!parsed.registrar.empty()) {
    json.BeginObject();
    json.Field("objectClassName", "entity");
    json.Key("roles").BeginArray().String("registrar").EndArray();
    json.Field("handle", parsed.registrar);
    json.EndObject();
  }
  if (!parsed.registrant.Empty()) {
    json.BeginObject();
    json.Field("objectClassName", "entity");
    json.Key("roles").BeginArray().String("registrant").EndArray();
    json.Key("contact");
    WriteContact(json, parsed.registrant);
    json.EndObject();
  }
  json.EndArray();

  json.EndObject();
  return json.Release();
}

}  // namespace whoiscrf::whois
