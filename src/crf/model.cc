#include "crf/model.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "crf/workspace.h"
#include "text/tokenizer.h"
#include "util/little_endian.h"

namespace whoiscrf::crf {

namespace {

constexpr uint32_t kMagic = 0x57435246;  // "WCRF"
// v2 appends a label-bigram support block after the weights. Save writes it
// empty; Load validates its size and skips it, so v1 streams and v2 streams
// from older writers (which filled it) load to the same model.
constexpr uint32_t kVersion = 2;
constexpr std::string_view kLoad = "CrfModel::Load";

using util::le::ReadString;
using util::le::ReadU32;
using util::le::WriteString;
using util::le::WriteU32;

}  // namespace

CrfModel::CrfModel(std::vector<std::string> label_names,
                   text::Vocabulary vocab,
                   std::vector<int> transition_attr_ids)
    : label_names_(std::move(label_names)),
      vocab_(std::move(vocab)),
      slot_attrs_(std::move(transition_attr_ids)) {
  if (label_names_.size() < 2) {
    throw std::invalid_argument("CrfModel: need at least two labels");
  }
  if (!vocab_.frozen()) {
    throw std::invalid_argument("CrfModel: vocabulary must be frozen");
  }
  for (size_t s = 0; s < slot_attrs_.size(); ++s) {
    slot_of_attr_.emplace(slot_attrs_[s], static_cast<int>(s));
  }
  const size_t L = label_names_.size();
  unigram_block_ = vocab_.size() * L;
  transition_block_ = L * L;
  weights_.assign(unigram_block_ + transition_block_ +
                      slot_attrs_.size() * L * L,
                  0.0);
}

size_t CrfModel::UnigramIndex(int attr_id, int label) const {
  return static_cast<size_t>(attr_id) * static_cast<size_t>(num_labels()) +
         static_cast<size_t>(label);
}

size_t CrfModel::TransitionIndex(int prev_label, int label) const {
  return unigram_block_ +
         static_cast<size_t>(prev_label) * static_cast<size_t>(num_labels()) +
         static_cast<size_t>(label);
}

size_t CrfModel::ObservedTransitionIndex(int slot, int prev_label,
                                         int label) const {
  const size_t L = static_cast<size_t>(num_labels());
  return unigram_block_ + transition_block_ +
         static_cast<size_t>(slot) * L * L +
         static_cast<size_t>(prev_label) * L + static_cast<size_t>(label);
}

CompiledSequence CrfModel::Compile(
    const std::vector<text::LineAttributes>& lines) const {
  CompiledSequence seq;
  seq.reserve(lines.size());
  for (const auto& line : lines) {
    CompiledItem item;
    item.attrs.reserve(line.attrs.size());
    for (size_t i = 0; i < line.attrs.size(); ++i) {
      const int id = vocab_.Lookup(line.attrs[i]);
      if (id == text::Vocabulary::kNotFound) continue;
      item.attrs.push_back(id);
      if (line.transition[i]) {
        auto it = slot_of_attr_.find(id);
        if (it != slot_of_attr_.end()) item.trans_slots.push_back(it->second);
      }
    }
    seq.push_back(std::move(item));
  }
  return seq;
}

namespace {

// AttrSink that interns attributes straight into one CompiledItem: lookup
// via the transparent-hash vocabulary (no string allocation), drop
// unknowns, dedup by id keeping the first occurrence — exactly the result
// of string-level dedup in Tokenizer::Extract followed by Compile, since
// equal attribute strings intern to equal ids.
class InternSink final : public text::AttrSink {
 public:
  InternSink(const text::Vocabulary& vocab,
             const std::unordered_map<int, int>& slot_of_attr)
      : vocab_(vocab), slot_of_attr_(slot_of_attr) {}

  void BeginItem(CompiledItem& item) {
    item_ = &item;
    item.attrs.clear();
    item.trans_slots.clear();
  }

  void OnAttr(std::string_view attr, bool transition) override {
    const int id = vocab_.Lookup(attr);
    if (id == text::Vocabulary::kNotFound) return;
    for (int existing : item_->attrs) {
      if (existing == id) return;  // first occurrence wins
    }
    item_->attrs.push_back(id);
    if (transition) {
      auto it = slot_of_attr_.find(id);
      if (it != slot_of_attr_.end()) item_->trans_slots.push_back(it->second);
    }
  }

 private:
  const text::Vocabulary& vocab_;
  const std::unordered_map<int, int>& slot_of_attr_;
  CompiledItem* item_ = nullptr;
};

}  // namespace

void CrfModel::CompileInto(const text::Tokenizer& tokenizer,
                           std::span<const text::Line> lines,
                           Workspace& ws) const {
  ws.seq.resize(lines.size());
  InternSink sink(vocab_, slot_of_attr_);
  for (size_t t = 0; t < lines.size(); ++t) {
    sink.BeginItem(ws.seq[t]);
    tokenizer.ExtractTo(lines[t], sink, ws.token_scratch);
  }
}

void CrfModel::CompileInto(const text::Tokenizer& tokenizer,
                           std::span<const text::Line* const> lines,
                           Workspace& ws) const {
  ws.seq.resize(lines.size());
  InternSink sink(vocab_, slot_of_attr_);
  for (size_t t = 0; t < lines.size(); ++t) {
    sink.BeginItem(ws.seq[t]);
    tokenizer.ExtractTo(*lines[t], sink, ws.token_scratch);
  }
}

CrfModel::Scores CrfModel::ComputeScores(const CompiledSequence& seq) const {
  Scores s;
  ComputeScores(seq, s);
  return s;
}

void CrfModel::ComputeScores(const CompiledSequence& seq, Scores& s) const {
  s.T = static_cast<int>(seq.size());
  s.L = num_labels();
  const size_t L = static_cast<size_t>(s.L);
  s.unary.assign(static_cast<size_t>(s.T) * L, 0.0);
  for (size_t t = 0; t < seq.size(); ++t) {
    UnaryScores(seq[t], &s.unary[t * L]);
  }
  FillPairwise(seq, s);
}

void CrfModel::UnaryScores(const CompiledItem& item, double* out) const {
  const size_t L = static_cast<size_t>(num_labels());
  for (size_t j = 0; j < L; ++j) out[j] = 0.0;
  for (int attr : item.attrs) {
    const double* w = &weights_[UnigramIndex(attr, 0)];
    for (size_t j = 0; j < L; ++j) out[j] += w[j];
  }
}

void CrfModel::PairwiseScores(std::span<const int> trans_slots,
                              double* out) const {
  const size_t L = static_cast<size_t>(num_labels());
  const double* trans = &weights_[TransitionIndex(0, 0)];
  for (size_t ij = 0; ij < L * L; ++ij) out[ij] = trans[ij];
  for (int slot : trans_slots) {
    const double* w = &weights_[ObservedTransitionIndex(slot, 0, 0)];
    for (size_t ij = 0; ij < L * L; ++ij) out[ij] += w[ij];
  }
}

void CrfModel::FillPairwise(const CompiledSequence& seq, Scores& s) const {
  const size_t L = static_cast<size_t>(s.L);
  s.pair_rows.clear();  // dense layout: PairRow(t) indexes `pairwise`
  s.exp_pair_rows.clear();
  s.pairwise.assign(static_cast<size_t>(s.T) * L * L, 0.0);
  for (size_t t = 1; t < seq.size(); ++t) {
    PairwiseScores(seq[t].trans_slots, &s.pairwise[t * L * L]);
  }
}

int CrfModel::TransSlot(int attr_id) const {
  const auto it = slot_of_attr_.find(attr_id);
  return it != slot_of_attr_.end() ? it->second : -1;
}

int CrfModel::LabelId(std::string_view name) const {
  for (size_t i = 0; i < label_names_.size(); ++i) {
    if (label_names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

void CrfModel::Save(std::ostream& os) const {
  WriteU32(os, kMagic);
  WriteU32(os, kVersion);
  WriteU32(os, static_cast<uint32_t>(label_names_.size()));
  for (const auto& name : label_names_) WriteString(os, name);
  vocab_.Save(os);
  WriteU32(os, static_cast<uint32_t>(slot_attrs_.size()));
  for (int attr : slot_attrs_) WriteU32(os, static_cast<uint32_t>(attr));
  WriteU32(os, static_cast<uint32_t>(weights_.size()));
  os.write(reinterpret_cast<const char*>(weights_.data()),
           static_cast<std::streamsize>(weights_.size() * sizeof(double)));
  WriteU32(os, 0);  // v2 trailer: empty support block
  if (!os) throw std::runtime_error("CrfModel::Save: write failed");
}

CrfModel CrfModel::Load(std::istream& is) {
  if (ReadU32(is, kLoad) != kMagic) {
    throw std::runtime_error("CrfModel::Load: bad magic");
  }
  const uint32_t version = ReadU32(is, kLoad);
  if (version < 1 || version > kVersion) {
    throw std::runtime_error("CrfModel::Load: unsupported version");
  }
  // Counts come off the stream: reserve at most kReserveLimit entries, and
  // read the weights in pieces, so a corrupt count fails with "truncated
  // stream" before it costs more memory than the stream holds.
  const uint32_t num_labels = ReadU32(is, kLoad);
  std::vector<std::string> labels;
  labels.reserve(std::min<size_t>(num_labels, util::le::kReserveLimit));
  for (uint32_t i = 0; i < num_labels; ++i) {
    labels.push_back(ReadString(is, kLoad));
  }
  text::Vocabulary vocab = text::Vocabulary::Load(is);
  const uint32_t num_slots = ReadU32(is, kLoad);
  std::vector<int> slots;
  slots.reserve(std::min<size_t>(num_slots, util::le::kReserveLimit));
  for (uint32_t i = 0; i < num_slots; ++i) {
    slots.push_back(static_cast<int>(ReadU32(is, kLoad)));
  }
  const uint32_t num_weights = ReadU32(is, kLoad);
  // (A + L + S*L) * L weights, in double: exact wherever it could equal
  // a u32.
  const double n_labels = static_cast<double>(labels.size());
  const double per_label = static_cast<double>(vocab.size()) + n_labels +
                           static_cast<double>(slots.size()) * n_labels;
  if (per_label * n_labels != static_cast<double>(num_weights)) {
    throw std::runtime_error("CrfModel::Load: weight count mismatch");
  }
  std::vector<double> weights;
  constexpr size_t kPiece = util::le::kReadPieceBytes / sizeof(double);
  while (weights.size() < num_weights) {
    const size_t have = weights.size();
    const size_t piece = std::min<size_t>(kPiece, num_weights - have);
    weights.resize(have + piece);
    if (!is.read(reinterpret_cast<char*>(weights.data() + have),
                 static_cast<std::streamsize>(piece * sizeof(double)))) {
      util::le::ThrowTruncated(kLoad);
    }
  }
  CrfModel model(std::move(labels), std::move(vocab), std::move(slots));
  model.weights_.swap(weights);
  if (version >= 2) {
    // v2 trailer: the transition-support mask older writers filled for
    // beam decoding (0 or L*L bytes). Nothing reads it any more; check the
    // declared size before skipping so a hostile file cannot claim 4 GiB.
    const uint32_t support_size = ReadU32(is, kLoad);
    const uint64_t L = num_labels;
    if (support_size != 0 && support_size != L * L) {
      throw std::runtime_error("CrfModel::Load: bad support size");
    }
    is.ignore(static_cast<std::streamsize>(support_size));
    if (is.gcount() != static_cast<std::streamsize>(support_size)) {
      throw std::runtime_error("CrfModel::Load: truncated support");
    }
  }
  return model;
}

void CrfModel::SaveFile(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("CrfModel::SaveFile: cannot open " + path);
  Save(os);
}

CrfModel CrfModel::LoadFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("CrfModel::LoadFile: cannot open " + path);
  return Load(is);
}

}  // namespace whoiscrf::crf
