// Shared machinery for the per-table/per-figure bench binaries.
//
// Every bench prints the same row/series structure as the corresponding
// table or figure in the paper. Sizes default to simulation scale and are
// multiplied by the WHOISCRF_SCALE environment variable (see DESIGN.md §5).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "baselines/rule_parser.h"
#include "datagen/corpus_gen.h"
#include "survey/accumulator.h"
#include "whois/whois_parser.h"

namespace whoiscrf::bench {

// Canonical seeds so every bench is reproducible and benches agree with
// each other about what "the corpus" is.
inline constexpr uint64_t kCorpusSeed = 20151028;  // IMC'15 opening day

// A corpus generator with survey-grade options (DBL and brand boosts on).
datagen::CorpusGenerator MakeSurveyGenerator(size_t size);

// A corpus generator with evaluation-grade options (no boosts).
datagen::CorpusGenerator MakeEvalGenerator(size_t size);

// The first `count` thick records of a generator's corpus.
std::vector<whois::LabeledRecord> TakeRecords(
    const datagen::CorpusGenerator& generator, size_t begin, size_t count);

// Trains the two-level statistical parser with bench-standard settings.
whois::WhoisParser TrainParser(const std::vector<whois::LabeledRecord>& train);

// The survey every §6 bench reads: train the parser on
// SharedSurveyTrainCount() records, parse SharedSurveyCount() domains of
// the survey corpus, and fold their rows into one SurveyAccumulator that
// tracks the Table 4 brands. The accumulator's serialized state is cached
// on disk (keyed by seed/train/count) so the nine table/figure benches
// share one training + parsing pass.
survey::SurveyAccumulator SharedSurveyAccumulator();
size_t SharedSurveyTrainCount();
size_t SharedSurveyCount();

// Line/document error rates of predicted vs gold labels over records.
struct ErrorRates {
  double line = 0.0;
  double document = 0.0;
  size_t lines = 0;
  size_t documents = 0;
};

// Counts errors of both parser types over the given test records.
ErrorRates EvaluateStatistical(const whois::WhoisParser& parser,
                               const std::vector<whois::LabeledRecord>& test);
ErrorRates EvaluateRuleBased(const baselines::RuleBasedParser& parser,
                             const std::vector<whois::LabeledRecord>& test);

// Renders a TopKResult in the paper's "Name  Number  (% All)" layout, with
// (Other)/(Unknown)/Total rows, like Tables 3 and 5-9.
std::string RenderTopK(const std::string& key_header,
                       const survey::TopKResult& result,
                       const std::string& unknown_label = "(Unknown)");

// Resolves country codes to display names for table rows ("US" ->
// "United States"); leaves unknown codes as-is.
survey::TopKResult WithCountryNames(survey::TopKResult result);

// Prints a standard bench header naming the paper artifact.
void PrintHeader(const std::string& artifact, const std::string& what);

}  // namespace whoiscrf::bench

namespace whoiscrf::bench::cv {

// Five-fold cross-validation sweep over training-set sizes (§5.1,
// Figures 2-3): for each fold and size, train a statistical parser on the
// subsample and roll the full rule-based parser back to the same records,
// then evaluate both on the records of the other folds.
struct SweepPoint {
  size_t train_size = 0;
  double stat_line_mean = 0.0, stat_line_std = 0.0;
  double rule_line_mean = 0.0, rule_line_std = 0.0;
  double stat_doc_mean = 0.0, stat_doc_std = 0.0;
  double rule_doc_mean = 0.0, rule_doc_std = 0.0;
};

std::vector<SweepPoint> RunSweep(size_t corpus_size, int folds,
                                 const std::vector<size_t>& train_sizes,
                                 size_t max_test_per_fold);

}  // namespace whoiscrf::bench::cv
