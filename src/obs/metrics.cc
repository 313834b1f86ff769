#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/json.h"

namespace whoiscrf::obs {

namespace {

bool ValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(name[0])) || name[0] == '_')) {
    return false;
  }
  for (char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
      return false;
    }
  }
  return true;
}

Labels SortedLabels(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

// Serialized instance key within a family: `k1="v1",k2="v2"` over the
// sorted label set (also exactly the Prometheus label body). Values are
// escaped as the text exposition format requires (\\, \", \n): some are
// parsed from records, e.g. the cascade's registrar label.
std::string LabelKey(const Labels& sorted) {
  std::string key;
  for (const auto& [k, v] : sorted) {
    if (!key.empty()) key += ',';
    key += k;
    key += "=\"";
    for (const char c : v) {
      switch (c) {
        case '\\': key += "\\\\"; break;
        case '"': key += "\\\""; break;
        case '\n': key += "\\n"; break;
        default: key += c;
      }
    }
    key += '"';
  }
  return key;
}

// Value formatting shared by Prometheus and the `le` bucket labels:
// integral values print without an exponent or trailing zeros so golden
// outputs stay readable; everything else gets %.12g.
std::string FormatValue(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

size_t Counter::ThreadShard() noexcept {
  static std::atomic<size_t> next{0};
  static thread_local size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument(
        "Histogram: bounds must be strictly increasing");
  }
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double value) noexcept {
  // Prometheus `le` semantics: the first bound >= value is inclusive, so
  // lower_bound lands on exactly the right bucket (the +Inf overflow slot
  // when value exceeds every bound).
  const size_t idx = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + value,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(bounds_.size() + 1);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::Sum() const noexcept {
  return sum_.load(std::memory_order_relaxed);
}

Registry& Registry::Global() {
  static Registry* instance = new Registry();  // never destroyed
  return *instance;
}

Registry::Instance& Registry::GetInstance(std::string_view name, Kind kind,
                                          std::string_view help,
                                          const Labels& labels,
                                          std::vector<double>* bounds) {
  if (!ValidMetricName(name)) {
    throw std::invalid_argument("Registry: invalid metric name '" +
                                std::string(name) + "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [fit, inserted] = families_.try_emplace(std::string(name));
  Family& family = fit->second;
  if (inserted) {
    family.kind = kind;
    if (bounds != nullptr) family.bounds = *bounds;
  } else if (family.kind != kind) {
    throw std::invalid_argument("Registry: metric '" + std::string(name) +
                                "' re-registered with a different kind");
  }
  if (family.help.empty() && !help.empty()) family.help = help;

  Labels sorted = SortedLabels(labels);
  std::string key = LabelKey(sorted);
  auto [iit, fresh] = family.instances.try_emplace(std::move(key));
  Instance& instance = iit->second;
  if (fresh) {
    instance.labels = std::move(sorted);
    switch (kind) {
      case Kind::kCounter:
        instance.counter.reset(new Counter());
        break;
      case Kind::kGauge:
        instance.gauge.reset(new Gauge());
        break;
      case Kind::kHistogram:
        instance.histogram.reset(new Histogram(family.bounds));
        break;
    }
  }
  return instance;
}

Counter* Registry::GetCounter(std::string_view name, std::string_view help,
                              const Labels& labels) {
  return GetInstance(name, Kind::kCounter, help, labels, nullptr)
      .counter.get();
}

Gauge* Registry::GetGauge(std::string_view name, std::string_view help,
                          const Labels& labels) {
  return GetInstance(name, Kind::kGauge, help, labels, nullptr).gauge.get();
}

Histogram* Registry::GetHistogram(std::string_view name,
                                  std::string_view help,
                                  std::vector<double> bounds,
                                  const Labels& labels) {
  return GetInstance(name, Kind::kHistogram, help, labels, &bounds)
      .histogram.get();
}

const Registry::Instance* Registry::FindInstance(std::string_view name,
                                                 const Labels& labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto fit = families_.find(std::string(name));
  if (fit == families_.end()) return nullptr;
  const auto iit = fit->second.instances.find(LabelKey(SortedLabels(labels)));
  if (iit == fit->second.instances.end()) return nullptr;
  return &iit->second;
}

uint64_t Registry::CounterValue(std::string_view name,
                                const Labels& labels) const {
  const Instance* instance = FindInstance(name, labels);
  return instance != nullptr && instance->counter != nullptr
             ? instance->counter->Value()
             : 0;
}

double Registry::GaugeValue(std::string_view name,
                            const Labels& labels) const {
  const Instance* instance = FindInstance(name, labels);
  return instance != nullptr && instance->gauge != nullptr
             ? instance->gauge->Value()
             : 0.0;
}

std::string Registry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    if (!family.help.empty()) {
      out += "# HELP " + name + " " + family.help + "\n";
    }
    out += "# TYPE " + name + " ";
    switch (family.kind) {
      case Kind::kCounter: out += "counter\n"; break;
      case Kind::kGauge: out += "gauge\n"; break;
      case Kind::kHistogram: out += "histogram\n"; break;
    }
    for (const auto& [key, instance] : family.instances) {
      const auto with_labels = [&](const std::string& suffix,
                                   const std::string& extra) {
        std::string line = name + suffix;
        if (!key.empty() || !extra.empty()) {
          line += '{';
          line += key;
          if (!key.empty() && !extra.empty()) line += ',';
          line += extra;
          line += '}';
        }
        return line;
      };
      switch (family.kind) {
        case Kind::kCounter:
          out += with_labels("", "") + " " +
                 std::to_string(instance.counter->Value()) + "\n";
          break;
        case Kind::kGauge:
          out += with_labels("", "") + " " +
                 FormatValue(instance.gauge->Value()) + "\n";
          break;
        case Kind::kHistogram: {
          const Histogram& h = *instance.histogram;
          const auto counts = h.BucketCounts();
          uint64_t cumulative = 0;
          for (size_t i = 0; i < h.bounds().size(); ++i) {
            cumulative += counts[i];
            out += with_labels("_bucket",
                               "le=\"" + FormatValue(h.bounds()[i]) + "\"") +
                   " " + std::to_string(cumulative) + "\n";
          }
          cumulative += counts.back();
          out += with_labels("_bucket", "le=\"+Inf\"") + " " +
                 std::to_string(cumulative) + "\n";
          out += with_labels("_sum", "") + " " + FormatValue(h.Sum()) + "\n";
          out += with_labels("_count", "") + " " + std::to_string(h.Count()) +
                 "\n";
          break;
        }
      }
    }
  }
  return out;
}

void Registry::RenderJson(util::JsonWriter& w) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto emit_name_labels = [&](const std::string& name,
                                    const Instance& instance) {
    w.Field("name", name);
    if (!instance.labels.empty()) {
      w.Key("labels").BeginObject();
      for (const auto& [k, v] : instance.labels) w.Field(k, v);
      w.EndObject();
    }
  };

  w.BeginObject();
  for (const auto& [kind, section] :
       {std::pair{Kind::kCounter, "counters"},
        std::pair{Kind::kGauge, "gauges"},
        std::pair{Kind::kHistogram, "histograms"}}) {
    w.Key(section).BeginArray();
    for (const auto& [name, family] : families_) {
      if (family.kind != kind) continue;
      for (const auto& [key, instance] : family.instances) {
        w.BeginObject();
        emit_name_labels(name, instance);
        switch (kind) {
          case Kind::kCounter:
            w.Key("value").Int(
                static_cast<long long>(instance.counter->Value()));
            break;
          case Kind::kGauge:
            w.Key("value").Double(instance.gauge->Value());
            break;
          case Kind::kHistogram: {
            const Histogram& h = *instance.histogram;
            w.Key("bounds").BeginArray();
            for (double b : h.bounds()) w.Double(b);
            w.EndArray();
            w.Key("counts").BeginArray();
            for (uint64_t c : h.BucketCounts()) {
              w.Int(static_cast<long long>(c));
            }
            w.EndArray();
            w.Key("count").Int(static_cast<long long>(h.Count()));
            w.Key("sum").Double(h.Sum());
            break;
          }
        }
        w.EndObject();
      }
    }
    w.EndArray();
  }
  w.EndObject();
}

std::string Registry::RenderJson() const {
  util::JsonWriter w;
  RenderJson(w);
  return w.str();
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, family] : families_) {
    for (auto& [key, instance] : family.instances) {
      if (instance.counter != nullptr) {
        for (auto& shard : instance.counter->shards_) shard.v.store(0);
      }
      if (instance.gauge != nullptr) instance.gauge->Set(0.0);
      if (instance.histogram != nullptr) {
        Histogram& h = *instance.histogram;
        for (size_t i = 0; i <= h.bounds_.size(); ++i) h.buckets_[i].store(0);
        h.count_.store(0);
        h.sum_.store(0.0);
      }
    }
  }
}

}  // namespace whoiscrf::obs
