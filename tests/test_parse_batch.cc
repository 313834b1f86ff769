// Parsing engine: fused tokenize+compile equivalence, fast-vs-naive Parse
// equivalence, ParseStream-vs-sequential equivalence across thread counts,
// the warm thread-local workspace behind Parse(record), cache admission
// and collisions, the title and transition-block memos, line-cache entry
// repacking, the warm workspace's heap footprint, the bounded route-plan
// memo, parser options round-trip, and legacy model-stream loading.
//
// These tests are the guardrail for the inference fast path: every
// workspace shortcut must be *exactly* the classic pipeline, down to
// log_prob. Run them in a -DWHOISCRF_TSAN=ON build tree to check the
// parallel path under ThreadSanitizer.
#include <algorithm>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <malloc.h>

#include "crf/workspace.h"
#include "datagen/corpus_gen.h"
#include "obs/metrics.h"
#include "text/line_splitter.h"
#include "text/separator.h"
#include "util/key_hash.h"
#include "util/random.h"
#include "util/string_util.h"
#include "whois/json_export.h"
#include "whois/record_stream.h"
#include "whois/stream_pipeline.h"
#include "whois/whois_parser.h"

namespace whoiscrf::whois {
namespace {

// Sanitizer allocators do not report through mallinfo2.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kMallinfoReportsHeap = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kMallinfoReportsHeap = false;
#else
constexpr bool kMallinfoReportsHeap = true;
#endif
#else
constexpr bool kMallinfoReportsHeap = true;
#endif

// Heap bytes in use: arena blocks plus separately mmapped large blocks.
size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

class ParseBatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::CorpusOptions options;
    options.size = 120;
    options.seed = 99;
    datagen::CorpusGenerator generator(options);
    std::vector<LabeledRecord> train;
    for (size_t i = 0; i < 120; ++i) {
      train.push_back(generator.Generate(i).thick);
    }
    parser_ = new WhoisParser(WhoisParser::Train(train));
    generator_ = new datagen::CorpusGenerator(options);
  }
  static void TearDownTestSuite() {
    delete parser_;
    delete generator_;
    parser_ = nullptr;
    generator_ = nullptr;
  }

  static std::vector<std::string> CorpusTexts(size_t begin, size_t count) {
    std::vector<std::string> out;
    out.reserve(count);
    for (size_t i = begin; i < begin + count; ++i) {
      out.push_back(generator_->Generate(i).thick.text);
    }
    return out;
  }

  // Parses `records` through whois::ParseStream on `threads` workers and
  // returns the parses in sink (input) order.
  static std::vector<ParsedWhois> StreamParse(
      const std::vector<std::string>& records, size_t threads) {
    StreamPipelineOptions options;
    options.threads = threads;
    VectorRecordSource source(records);
    std::vector<ParsedWhois> out;
    ParseStream(*parser_, source, options,
                [&](uint64_t index, const std::string&,
                    const ParsedWhois& parsed) {
                  EXPECT_EQ(index, out.size());
                  out.push_back(parsed);
                });
    return out;
  }

  static WhoisParser* parser_;
  static datagen::CorpusGenerator* generator_;
};

WhoisParser* ParseBatchTest::parser_ = nullptr;
datagen::CorpusGenerator* ParseBatchTest::generator_ = nullptr;

TEST_F(ParseBatchTest, FusedCompileMatchesExtractCompile) {
  const text::Tokenizer tokenizer(parser_->options().tokenizer);
  crf::Workspace ws;
  for (const std::string& text : CorpusTexts(300, 20)) {
    const auto lines = text::SplitRecord(text);
    std::vector<text::LineAttributes> attrs;
    attrs.reserve(lines.size());
    for (const auto& line : lines) attrs.push_back(tokenizer.Extract(line));

    // The frozen classic extraction and the streaming path must agree
    // attribute-for-attribute (same values, order, transition flags).
    for (const auto& line : lines) {
      const text::LineAttributes classic_attrs = tokenizer.ExtractClassic(line);
      const text::LineAttributes fast_attrs = tokenizer.Extract(line);
      EXPECT_EQ(fast_attrs.attrs, classic_attrs.attrs);
      EXPECT_EQ(fast_attrs.transition, classic_attrs.transition);
    }

    std::vector<const text::Line*> line_ptrs;
    for (const auto& line : lines) line_ptrs.push_back(&line);

    for (const crf::CrfModel* model :
         {&parser_->level1_model(), &parser_->level2_model()}) {
      const crf::CompiledSequence classic = model->Compile(attrs);
      model->CompileInto(tokenizer, lines, ws);
      ASSERT_EQ(ws.seq.size(), classic.size());
      for (size_t t = 0; t < classic.size(); ++t) {
        EXPECT_EQ(ws.seq[t].attrs, classic[t].attrs) << "line " << t;
        EXPECT_EQ(ws.seq[t].trans_slots, classic[t].trans_slots)
            << "line " << t;
      }
      // The pointer-span overload (scattered line subsets) must agree too.
      model->CompileInto(
          tokenizer, std::span<const text::Line* const>(line_ptrs), ws);
      ASSERT_EQ(ws.seq.size(), classic.size());
      for (size_t t = 0; t < classic.size(); ++t) {
        EXPECT_EQ(ws.seq[t].attrs, classic[t].attrs) << "ptr line " << t;
      }
    }
  }
}

TEST_F(ParseBatchTest, FastParseMatchesNaive) {
  ParseWorkspace ws;
  for (const std::string& text : CorpusTexts(500, 40)) {
    const ParsedWhois naive = parser_->ParseNaive(text);
    const ParsedWhois fast = parser_->Parse(text, ws);
    EXPECT_EQ(ToJson(fast), ToJson(naive));
    EXPECT_EQ(fast.line_labels, naive.line_labels);
    EXPECT_DOUBLE_EQ(fast.log_prob, naive.log_prob);
  }
}

TEST_F(ParseBatchTest, BatchMatchesSequentialAcrossThreadCounts) {
  const std::vector<std::string> records = CorpusTexts(700, 60);
  std::vector<ParsedWhois> sequential;
  sequential.reserve(records.size());
  ParseWorkspace ws;
  for (const std::string& r : records) {
    sequential.push_back(parser_->Parse(r, ws));
  }

  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    const std::vector<ParsedWhois> batch = StreamParse(records, threads);
    ASSERT_EQ(batch.size(), sequential.size()) << threads << " threads";
    for (size_t r = 0; r < batch.size(); ++r) {
      EXPECT_EQ(ToJson(batch[r]), ToJson(sequential[r]))
          << threads << " threads, record " << r;
      EXPECT_EQ(batch[r].log_prob, sequential[r].log_prob)
          << threads << " threads, record " << r;
    }
  }
}

TEST_F(ParseBatchTest, ThreadLocalWorkspaceStaysWarmAcrossCalls) {
  // Parse(record) runs on the calling thread's thread-local workspace, so
  // a second pass on the same thread starts with the caches the first one
  // warmed. A fresh thread starts from a cold workspace.
  const std::vector<std::string> records = CorpusTexts(1000, 40);
  const auto hits = [] {
    return obs::Registry::Global().CounterValue(
        "whoiscrf_compile_cache_hits_total");
  };
  uint64_t first_hits = 0;
  uint64_t second_hits = 0;
  std::vector<ParsedWhois> first;
  std::vector<ParsedWhois> second;
  std::thread([&] {
    const uint64_t before = hits();
    for (const std::string& r : records) first.push_back(parser_->Parse(r));
    const uint64_t after_first = hits();
    for (const std::string& r : records) second.push_back(parser_->Parse(r));
    first_hits = after_first - before;
    second_hits = hits() - after_first;
  }).join();
  EXPECT_GT(second_hits, first_hits);
  ASSERT_EQ(second.size(), first.size());
  ParseWorkspace ws;
  for (size_t r = 0; r < first.size(); ++r) {
    EXPECT_EQ(ToJson(second[r]), ToJson(first[r])) << "record " << r;
    EXPECT_EQ(ToJson(first[r]), ToJson(parser_->Parse(records[r], ws)))
        << "record " << r;
  }
}

TEST_F(ParseBatchTest, CacheAdmissionAndCollisionsKeepOutputIdentical) {
  // Lines that occur many times (template lines), exactly twice (shared by
  // records 2k and 2k+1) and once (per-record values), with far more
  // distinct lines and words than the caches have slots: slots collide,
  // first sightings compile into the overflow pool, and the doorkeeper
  // empties at least once. None of it may show in the output.
  constexpr size_t kRecords = 500;
  constexpr size_t kUniqueLines = 60;  // per record, two unique words each
  const char* kUniqueTitles[] = {"Registrant Street", "Admin Phone",
                                 "Tech Email", "Updated Date",
                                 "Registrant City", "Billing Name"};
  std::vector<std::string> records;
  records.reserve(kRecords);
  for (size_t r = 0; r < kRecords; ++r) {
    const std::string pair = std::to_string(r / 2);
    std::string rec = "Domain Name: UNIQUE" + std::to_string(r) + ".COM\n";
    rec += "Registrar: EXAMPLE REGISTRAR LLC\n";
    rec += "Registrar URL: http://www.example-registrar.com\n";
    rec += "Domain Status: clientTransferProhibited\n";
    rec += "Name Server: NS" + pair + ".PAIRED-HOST.NET\n";
    rec += "Registrant Organization: Paired Org " + pair + "\n";
    for (size_t k = 0; k < kUniqueLines; ++k) {
      const std::string n = std::to_string(r * kUniqueLines + k);
      rec += std::string(kUniqueTitles[k % 6]) + ": v" + n + " w" + n + "\n";
    }
    rec += "\n>>> Last update of WHOIS database: 2015-01-01 <<<\n";
    records.push_back(std::move(rec));
  }

  const auto hits = [] {
    return obs::Registry::Global().CounterValue(
        "whoiscrf_compile_cache_hits_total");
  };
  const uint64_t hits_before = hits();
  ParseWorkspace long_lived;
  for (size_t r = 0; r < records.size(); ++r) {
    const std::string warm = ToJson(parser_->Parse(records[r], long_lived));
    ParseWorkspace fresh_ws;
    EXPECT_EQ(warm, ToJson(parser_->Parse(records[r], fresh_ws)))
        << "record " << r;
    EXPECT_EQ(warm, ToJson(parser_->ParseNaive(records[r]))) << "record " << r;
  }
  EXPECT_GT(hits() - hits_before, 0u);
  EXPECT_GE(long_lived.doorkeeper.clears, 1u);
  EXPECT_LE(long_lived.field_routes.by_title.size(),
            FieldRouteCache::kMaxTitles);
}

TEST_F(ParseBatchTest, TitleAndTransitionMemosKeepOutputIdentical) {
  // Titled lines built from the model's transition-slotted first title
  // words, under every layout marker, separator kind and empty/non-empty
  // value, with numbered titles: far more distinct title keys and
  // trans_slots lists than the memos have slots, so entries are evicted,
  // re-recorded and collide within one record. Also untitled lines,
  // `[bracket]` titles, an empty bracket title, URL values, and values
  // that repeat a title word. Output — parseLogProb included — must not
  // depend on what the memos held.
  const crf::CrfModel& level1 = parser_->level1_model();
  std::vector<std::string> first_words;
  for (int id = 0; id < static_cast<int>(level1.vocab().size()); ++id) {
    const std::string& name = level1.vocab().Name(id);
    if (level1.TransSlot(id) >= 0 && name.size() > 2 &&
        name.compare(name.size() - 2, 2, "@T") == 0) {
      first_words.push_back(name.substr(0, name.size() - 2));
    }
  }
  ASSERT_GE(first_words.size(), 8u);
  const char* kSecondWords[] = {"name", "street", "city", "email", "phone",
                                "date", "server", "organization"};
  const char* kSeparators[] = {": ", " = ", "....: ", "\t", "   "};
  const char* kIndents[] = {"", "  ", "    "};
  const char* kSymbols[] = {"", "", "", "% ", "# ", "> "};

  util::Rng rng(2024);
  std::vector<std::string> records;
  std::set<std::string> titles;
  for (size_t r = 0; r < 320; ++r) {
    std::string rec;
    for (size_t k = 0; k < 40; ++k) {
      if (rng.Bernoulli(0.12)) rec += "\n";  // NL on the next line
      rec += kIndents[rng.UniformInt(0, 2)];
      rec += kSymbols[rng.UniformInt(0, 5)];
      const std::string first =
          first_words[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(first_words.size()) - 1))];
      std::string title = first;
      if (rng.Bernoulli(0.7)) {
        title.append(" ").append(kSecondWords[rng.UniformInt(0, 7)]);
      }
      if (rng.Bernoulli(0.4)) {
        title.append(" ").append(std::to_string(rng.UniformInt(0, 999)));
      }
      std::string value;
      switch (rng.UniformInt(0, 5)) {
        case 0: break;  // empty value
        case 1: value = title; break;
        case 2: value = "http://www.example" + std::to_string(r) + ".com/"; break;
        case 3: value = "NS" + std::to_string(k) + ".EXAMPLE.NET"; break;
        default: value = "Value " + std::to_string(rng.UniformInt(0, 50)); break;
      }
      const int64_t shape = rng.UniformInt(0, 11);
      if (shape == 0) {
        rec += value.empty() ? "UNTITLED LINE" : value;  // no separator
      } else if (shape == 1) {
        rec += "[" + title + "] " + value;
        titles.insert(title);
      } else if (shape == 2) {
        rec += "[ ] " + (value.empty() ? std::string("x") : value);
      } else {
        const char* sep = kSeparators[rng.UniformInt(0, 4)];
        // Wide-space and tab separators need a value to split on.
        if ((sep[0] == ' ' || sep[0] == '\t') && value.empty()) value = "v";
        rec += title + sep + value;
        titles.insert(title);
      }
      rec += "\n";
    }
    records.push_back(std::move(rec));
  }

  // Distinct trans_slots lists per level, as the fused compile sees them.
  const text::Tokenizer tokenizer(parser_->options().tokenizer);
  std::set<std::vector<int>> lists1, lists2;
  crf::Workspace cws;
  for (const std::string& rec : records) {
    const std::vector<text::Line> lines = text::SplitRecord(rec);
    level1.CompileInto(tokenizer, std::span<const text::Line>(lines), cws);
    for (const crf::CompiledItem& item : cws.seq) lists1.insert(item.trans_slots);
    parser_->level2_model().CompileInto(
        tokenizer, std::span<const text::Line>(lines), cws);
    for (const crf::CompiledItem& item : cws.seq) lists2.insert(item.trans_slots);
  }

  datagen::CorpusOptions corpus;
  corpus.size = 40;
  corpus.seed = 12;
  datagen::CorpusGenerator generator(corpus);
  std::vector<LabeledRecord> train;
  for (size_t i = 0; i < 40; ++i) train.push_back(generator.Generate(i).thick);
  WhoisParserOptions options;
  options.tokenizer.max_word_length = 10;
  const WhoisParser other = WhoisParser::Train(train, options);

  ParseWorkspace long_lived;
  ParseWorkspace handed;  // changes parser every 40 records
  for (size_t r = 0; r < records.size(); ++r) {
    const ParsedWhois warm = parser_->Parse(records[r], long_lived);
    const std::string json = ToJson(warm);
    ParseWorkspace fresh_ws;
    const ParsedWhois fresh = parser_->Parse(records[r], fresh_ws);
    EXPECT_EQ(json, ToJson(fresh)) << "record " << r;
    EXPECT_EQ(warm.log_prob, fresh.log_prob) << "record " << r;
    const ParsedWhois naive = parser_->ParseNaive(records[r]);
    EXPECT_EQ(json, ToJson(naive)) << "record " << r;
    EXPECT_EQ(warm.log_prob, naive.log_prob) << "record " << r;
    if ((r / 40) % 2 == 0) {
      EXPECT_EQ(json, ToJson(parser_->Parse(records[r], handed)))
          << "record " << r;
    } else {
      EXPECT_EQ(ToJson(other.Parse(records[r], handed)),
                ToJson(other.ParseNaive(records[r])))
          << "record " << r;
    }
  }
  EXPECT_GT(titles.size(), long_lived.titles.size());
  EXPECT_GT(lists1.size(), long_lived.pairs1.entries.size());
  EXPECT_GT(lists2.size(), long_lived.pairs2.entries.size());
}

TEST_F(ParseBatchTest, LineCacheEntriesRepackInPlace) {
  // One line-cache slot is taken by a template line, re-admitted to a
  // colliding line whose key and value outgrow the slot's buffer, then to
  // a shorter one, which must reuse the grown buffer. Then the workspace
  // goes to another parser, which vacates every slot, and back. No step
  // may show in the output.
  const std::string head =
      "Domain Name: REPACK-TEST.COM\nRegistrar: EXAMPLE REGISTRAR LLC\n"
      "Registrant Name: Jane Roe\n";
  const std::string tail =
      "\nRegistrant Country: US\nName Server: NS1.EXAMPLE.NET\n";
  const auto record = [&](const std::string& line) {
    return head + line + tail;
  };
  ParseWorkspace ws;
  // Parses `text` twice (a line is admitted on its second sighting), each
  // time against ParseNaive.
  const auto parse_twice = [&](const WhoisParser& parser,
                               const std::string& text) {
    for (int pass = 0; pass < 2; ++pass) {
      const ParsedWhois fast = parser.Parse(text, ws);
      const ParsedWhois naive = parser.ParseNaive(text);
      EXPECT_EQ(ToJson(fast), ToJson(naive)) << text;
      EXPECT_EQ(fast.log_prob, naive.log_prob) << text;
    }
  };
  const auto slot_holding = [&](std::string_view line) -> const LineSlot* {
    for (const LineSlot& slot : ws.slots) {
      const std::string_view key = slot.entry.key();
      if (key.size() == line.size() + 1 && key.substr(1) == line) return &slot;
    }
    return nullptr;
  };

  const std::string first = "Registrant City: Springfield";
  parse_twice(*parser_, record(first));
  const LineSlot* slot = slot_holding(first);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->entry.value(), "Springfield");
  const size_t first_capacity = slot->entry.capacity();

  // Lines at the same position (same layout flags) whose keys hash to the
  // same slot.
  const std::string flags(1, slot->entry.key()[0]);
  const size_t mask = ws.slots.size() - 1;
  const size_t index = static_cast<size_t>(slot - ws.slots.data());
  const auto colliding = [&](const std::string& prefix) {
    for (size_t n = 0;; ++n) {
      std::string line = prefix + std::to_string(n);
      if ((util::KeyHash(flags + line) & mask) == index) return line;
    }
  };

  const std::string longer = colliding(
      "Registrant Street: 1200 Very Long Boulevard Of The Republic, Building "
      "Seven, Floor Twenty-Three, Suite ");
  parse_twice(*parser_, record(longer));
  ASSERT_EQ(slot_holding(longer), slot);
  EXPECT_EQ(slot_holding(first), nullptr);
  EXPECT_EQ(slot->entry.value(), longer.substr(longer.find(": ") + 2));
  const size_t grown_capacity = slot->entry.capacity();
  EXPECT_GT(grown_capacity, first_capacity);

  const std::string shorter = colliding("Registrant City: Ayr ");
  ASSERT_LT(shorter.size(), longer.size());
  parse_twice(*parser_, record(shorter));
  ASSERT_EQ(slot_holding(shorter), slot);
  EXPECT_EQ(slot->entry.capacity(), grown_capacity);

  datagen::CorpusOptions corpus;
  corpus.size = 40;
  corpus.seed = 13;
  datagen::CorpusGenerator generator(corpus);
  std::vector<LabeledRecord> train;
  for (size_t i = 0; i < 40; ++i) train.push_back(generator.Generate(i).thick);
  WhoisParserOptions options;
  options.tokenizer.max_word_length = 10;
  const WhoisParser other = WhoisParser::Train(train, options);
  const std::string text = record(shorter);
  const ParsedWhois crossed = other.Parse(text, ws);
  EXPECT_EQ(ToJson(crossed), ToJson(other.ParseNaive(text)));
  EXPECT_EQ(crossed.log_prob, other.ParseNaive(text).log_prob);
  // Every slot was vacated; only this record's lines can have re-entered.
  size_t occupied = 0;
  for (const LineSlot& s : ws.slots) occupied += s.entry.key().empty() ? 0 : 1;
  EXPECT_LE(occupied, text::SplitRecord(text).size());
  EXPECT_EQ(slot_holding(longer), nullptr);
  parse_twice(*parser_, text);
  parse_twice(*parser_, record(longer));
}

TEST_F(ParseBatchTest, WarmWorkspaceFootprintStaysBounded) {
  // Each parse worker keeps one long-lived workspace, so its line and word
  // caches, memos and overflow pools bound a census's memory. Parses 8,000
  // distinct records through one workspace and checks the heap it grew.
  if (!kMallinfoReportsHeap) {
    GTEST_SKIP() << "sanitizer allocators do not report through mallinfo2";
  }
  {
    ParseWorkspace first;  // sets up this thread's metric shards
    parser_->Parse(generator_->Generate(0).thick.text, first);
  }
  const size_t before = HeapInUse();
  ParseWorkspace ws;
  for (size_t i = 20000; i < 28000; ++i) {
    parser_->Parse(generator_->Generate(i).thick.text, ws);
  }
  const size_t grown = HeapInUse() - before;
  RecordProperty("workspace_heap_bytes", std::to_string(grown));
  EXPECT_LT(grown, size_t{4608} * 1024) << grown << " bytes";
}

TEST(FieldRouteCacheTest, StaysBoundedUnderUniqueTitles) {
  // Every record brings titles never seen before; the per-title memo must
  // stay within its cap and still route exactly like ExtractFields.
  const std::vector<Level1Label> labels = {
      Level1Label::kRegistrar, Level1Label::kRegistrar, Level1Label::kDomain,
      Level1Label::kDate, Level1Label::kRegistrant};
  const std::vector<Level2Label> subs = {Level2Label::kName};
  FieldRouteCache cache;
  std::vector<std::optional<text::SeparatorSplit>> separators;
  size_t max_size = 0;
  for (size_t r = 0; r < 100000; ++r) {
    const std::string n = std::to_string(r);
    std::string text = "Sponsor " + n + ": Registrar " + n + "\n";
    text += "Link " + n + ": http://r" + n + ".example\n";
    text += "Domain " + n + ": D" + n + ".COM\n";
    text += "Created " + n + ": 2001-02-03\n";
    text += "Name " + n + ": Person " + n + "\n";
    const auto lines = text::SplitRecord(text);
    ASSERT_EQ(lines.size(), labels.size());
    text::FindSeparators(lines, separators);
    ParsedWhois cached, reference;
    ExtractFieldsCached(lines, separators, labels, subs, cached, cache);
    ExtractFields(lines, labels, subs, reference);
    max_size = std::max(max_size, cache.by_title.size());
    if (r % 997 == 0) {
      ASSERT_EQ(ToJson(cached), ToJson(reference)) << "record " << r;
      ASSERT_FALSE(cached.registrar_url.empty()) << "record " << r;
    }
  }
  EXPECT_LE(max_size, FieldRouteCache::kMaxTitles);
  EXPECT_GE(max_size, FieldRouteCache::kMaxTitles - 5);
}

TEST_F(ParseBatchTest, ParseBatchHandlesEmptyAndDegenerateRecords) {
  EXPECT_TRUE(StreamParse({}, 2).empty());

  const std::vector<std::string> records = {
      "", "\n\n\n", "%%%%%\n-----\n", generator_->Generate(900).thick.text};
  const auto batch = StreamParse(records, 2);
  ASSERT_EQ(batch.size(), records.size());
  for (size_t r = 0; r < records.size(); ++r) {
    EXPECT_EQ(ToJson(batch[r]), ToJson(parser_->ParseNaive(records[r])))
        << "record " << r;
  }
}

TEST(ParserOptionsTest, SaveLoadRoundTripsOptions) {
  datagen::CorpusOptions corpus;
  corpus.size = 60;
  corpus.seed = 7;
  datagen::CorpusGenerator generator(corpus);
  std::vector<LabeledRecord> train;
  for (size_t i = 0; i < 60; ++i) {
    train.push_back(generator.Generate(i).thick);
  }

  WhoisParserOptions options;
  options.tokenizer.max_word_length = 10;
  options.tokenizer.word_classes = false;
  options.trainer.min_attr_count = 2;
  options.trainer.l2_sigma = 3.5;
  const WhoisParser trained = WhoisParser::Train(train, options);

  std::stringstream ss;
  trained.Save(ss);
  const WhoisParser loaded = WhoisParser::Load(ss);

  EXPECT_EQ(loaded.options().tokenizer.max_word_length, 10u);
  EXPECT_FALSE(loaded.options().tokenizer.word_classes);
  EXPECT_TRUE(loaded.options().tokenizer.layout_markers);
  EXPECT_TRUE(loaded.options().tokenizer.separator_markers);
  EXPECT_EQ(loaded.options().trainer.min_attr_count, 2u);
  EXPECT_DOUBLE_EQ(loaded.options().trainer.l2_sigma, 3.5);

  // With the tokenizer options restored, the reloaded parser must produce
  // identical parses — this is the bug the header fixes: options used to
  // be silently dropped, so a non-default tokenizer mis-tokenized after
  // reload.
  for (size_t i = 100; i < 120; ++i) {
    const std::string text = generator.Generate(i).thick.text;
    EXPECT_EQ(ToJson(loaded.Parse(text)), ToJson(trained.Parse(text)));
  }
}

TEST_F(ParseBatchTest, WorkspaceReusedAcrossParsersStaysCorrect) {
  // A workspace's line cache is keyed to one parser instance; handing the
  // workspace to a different parser (different vocabulary AND different
  // tokenizer options) must not leak stale compiled lines.
  datagen::CorpusOptions corpus;
  corpus.size = 40;
  corpus.seed = 11;
  datagen::CorpusGenerator generator(corpus);
  std::vector<LabeledRecord> train;
  for (size_t i = 0; i < 40; ++i) {
    train.push_back(generator.Generate(i).thick);
  }
  WhoisParserOptions options;
  options.tokenizer.max_word_length = 12;
  const WhoisParser other = WhoisParser::Train(train, options);

  ParseWorkspace ws;
  const std::string text = generator_->Generate(910).thick.text;
  const ParsedWhois first = parser_->Parse(text, ws);
  const ParsedWhois crossed = other.Parse(text, ws);
  const ParsedWhois again = parser_->Parse(text, ws);

  EXPECT_EQ(ToJson(first), ToJson(parser_->ParseNaive(text)));
  EXPECT_EQ(ToJson(crossed), ToJson(other.ParseNaive(text)));
  EXPECT_EQ(ToJson(again), ToJson(first));
  EXPECT_EQ(again.log_prob, first.log_prob);
}

TEST_F(ParseBatchTest, LoadsLegacyStreamsWithoutParserHeader) {
  // Pre-header streams are just the two CrfModels back to back.
  std::stringstream ss;
  parser_->level1_model().Save(ss);
  parser_->level2_model().Save(ss);
  const WhoisParser loaded = WhoisParser::Load(ss);

  EXPECT_EQ(loaded.options().tokenizer.max_word_length,
            text::TokenizerOptions{}.max_word_length);
  for (size_t i = 950; i < 960; ++i) {
    const std::string text = generator_->Generate(i).thick.text;
    EXPECT_EQ(ToJson(loaded.Parse(text)), ToJson(parser_->Parse(text)));
  }
}

TEST(SplitRecordIntoTest, ReusesBufferAcrossRecords) {
  std::vector<text::Line> reused;
  const std::string first =
      "Domain Name: EXAMPLE.COM\nRegistrar: Example Registrar\n"
      "\n   Name Server: NS1.EXAMPLE.COM\n";
  const std::string second = "Status: ok\n";
  for (const std::string* record : {&first, &second, &first}) {
    text::SplitRecordInto(*record, reused);
    const auto fresh = text::SplitRecord(*record);
    ASSERT_EQ(reused.size(), fresh.size());
    for (size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(reused[i].text, fresh[i].text);
      EXPECT_EQ(reused[i].preceded_by_blank, fresh[i].preceded_by_blank);
      EXPECT_EQ(reused[i].shift_right, fresh[i].shift_right);
      EXPECT_EQ(reused[i].indent, fresh[i].indent);
    }
  }
}

}  // namespace
}  // namespace whoiscrf::whois
