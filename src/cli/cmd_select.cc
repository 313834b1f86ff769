#include <cstdio>

#include "cli/commands.h"
#include "whois/active_learning.h"
#include "whois/record_stream.h"
#include "whois/whois_parser.h"

namespace whoiscrf::cli {

int CmdSelect(util::FlagParser& flags) {
  const std::string model_path = flags.GetString("model");
  const std::string in = flags.GetString("in");
  const auto k = static_cast<size_t>(flags.GetInt("k", 5));
  if (model_path.empty() || in.empty()) {
    std::fprintf(stderr, "select: --model and --in are required\n");
    return 2;
  }

  const whois::WhoisParser parser = whois::WhoisParser::LoadFile(model_path);
  const auto pool = whois::ReadAllRecords(in);
  const auto selected = whois::SelectForLabeling(parser, pool, k);

  std::printf("%zu records in pool; %zu selected for labeling "
              "(lowest parse confidence first):\n\n",
              pool.size(), selected.size());
  for (const auto& choice : selected) {
    std::printf("--- record %zu (per-line log-prob %.4f) ---\n%s\n",
                choice.index, choice.confidence,
                pool[choice.index].c_str());
  }
  return 0;
}

}  // namespace whoiscrf::cli
