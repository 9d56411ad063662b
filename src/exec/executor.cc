#include "exec/executor.h"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "expr/eval.h"

namespace qtf {
namespace {

using exec_internal::ColumnarTable;

/// Per-Execute services and accounting shared by all nodes of one plan.
struct ExecContext {
  const ColumnRegistry* registry = nullptr;
  Arena* arena = nullptr;
  EvalProgramCache* programs = nullptr;
  const FaultInjector* injector = nullptr;
  uint64_t salt = 0;
  int capacity = Batch::kDefaultCapacity;
  std::function<Result<const ColumnarTable*>(const TableDef&)> tables;
  int64_t rows = 0;     // rows produced by all operators
  int64_t batches = 0;  // non-empty batches emitted by all operators
};

/// Hash of one row's cells across `keys` columns; pairs with KeysEqual.
uint64_t KeyHash(const std::vector<const ColumnVector*>& keys, int i) {
  uint64_t h = 0x84222325cbf29ce4ULL;
  for (const ColumnVector* c : keys) h = HashCombine(h, c->CellHash(i));
  return h;
}

bool KeysEqual(const std::vector<const ColumnVector*>& a, int i,
               const std::vector<const ColumnVector*>& b, int j) {
  for (size_t k = 0; k < a.size(); ++k) {
    if (!a[k]->CellEquals(i, *b[k], j)) return false;
  }
  return true;
}

/// Open-chaining hash index over row indices 0..N-1, arena-backed. Entries
/// are appended in row order; `linked=false` records a row without making
/// it reachable (hash-join build rows with NULL keys). Grows by doubling
/// the bucket array and relinking, so it serves both the two-phase join
/// build and the incremental group-by/distinct tables.
class HashChains {
 public:
  explicit HashChains(Arena* arena)
      : heads_(MakeArenaVector<int32_t>(arena)),
        next_(MakeArenaVector<int32_t>(arena)),
        hashes_(MakeArenaVector<uint64_t>(arena)),
        linked_(MakeArenaVector<uint8_t>(arena)) {}

  void Reset(int64_t expected_rows) {
    size_t buckets = 16;
    while (static_cast<int64_t>(buckets) < 2 * expected_rows) buckets *= 2;
    heads_.assign(buckets, -1);
    mask_ = buckets - 1;
    next_.clear();
    hashes_.clear();
    linked_.clear();
  }

  int32_t size() const { return static_cast<int32_t>(next_.size()); }

  /// First candidate entry for hash h (walk with NextEntry; callers check
  /// hash_of() and cell equality themselves to visit all matches).
  int32_t First(uint64_t h) const {
    return heads_[static_cast<size_t>(h) & mask_];
  }
  int32_t NextEntry(int32_t j) const {
    return next_[static_cast<size_t>(j)];
  }
  uint64_t hash_of(int32_t j) const { return hashes_[static_cast<size_t>(j)]; }

  /// Appends the entry for the next row index.
  void Append(uint64_t h, bool linked) {
    if (linked && next_.size() + 1 > (mask_ + 1) * 3 / 4) Grow();
    int32_t idx = size();
    hashes_.push_back(h);
    linked_.push_back(linked ? 1 : 0);
    if (linked) {
      size_t b = static_cast<size_t>(h) & mask_;
      next_.push_back(heads_[b]);
      heads_[b] = idx;
    } else {
      next_.push_back(-1);
    }
  }

 private:
  void Grow() {
    size_t buckets = (mask_ + 1) * 2;
    heads_.assign(buckets, -1);
    mask_ = buckets - 1;
    for (int32_t j = 0; j < size(); ++j) {
      if (linked_[static_cast<size_t>(j)] == 0) continue;
      size_t b = static_cast<size_t>(hashes_[static_cast<size_t>(j)]) & mask_;
      next_[static_cast<size_t>(j)] = heads_[b];
      heads_[b] = j;
    }
  }

  ArenaVector<int32_t> heads_;
  ArenaVector<int32_t> next_;
  ArenaVector<uint64_t> hashes_;
  ArenaVector<uint8_t> linked_;
  size_t mask_ = 0;
};

/// Growable columnar row store (build sides, sort buffers, group keys).
struct ColumnSet {
  std::vector<ColumnVector> cols;
  int64_t rows = 0;

  void Configure(const std::vector<ValueType>& types, Arena* arena) {
    cols.clear();
    cols.reserve(types.size());
    for (ValueType t : types) cols.emplace_back(t, arena);
    rows = 0;
  }

  void AppendBatch(const Batch& b) {
    for (size_t c = 0; c < cols.size(); ++c) {
      cols[c].AppendRange(b.col(static_cast<int>(c)), 0, b.num_rows());
    }
    rows += b.num_rows();
  }

  std::vector<const ColumnVector*> ColsAt(const std::vector<int>& pos) const {
    std::vector<const ColumnVector*> out;
    out.reserve(pos.size());
    for (int p : pos) out.push_back(&cols[static_cast<size_t>(p)]);
    return out;
  }
};

std::vector<const ColumnVector*> BatchColsAt(const Batch& b,
                                             const std::vector<int>& pos) {
  std::vector<const ColumnVector*> out;
  out.reserve(pos.size());
  for (int p : pos) out.push_back(&b.col(p));
  return out;
}

/// Base operator node: Init() prepares programs/buffers recursively,
/// Next(Batch*) fills a caller-owned batch configured to this node's
/// schema and returns false at end-of-stream. A true return always carries
/// at least one row.
///
/// Every Next call probes the executor.next_batch fault site with key
/// salt ^ HashCombine(node_seq, batch_index): faults land per batch, and
/// the key stream for a plan depends only on its shape (node numbering is
/// pre-order and restarts every Execute).
class ExecNode {
 public:
  ExecNode(ExecContext* ctx, std::vector<ColumnId> ids, int seq)
      : ctx_(ctx), ids_(std::move(ids)), seq_(seq) {
    types_.reserve(ids_.size());
    for (ColumnId id : ids_) types_.push_back(ctx_->registry->TypeOf(id));
  }
  virtual ~ExecNode() = default;
  ExecNode(const ExecNode&) = delete;
  ExecNode& operator=(const ExecNode&) = delete;

  const std::vector<ColumnId>& ids() const { return ids_; }
  const std::vector<ValueType>& types() const { return types_; }

  virtual Status Init() = 0;

  Result<bool> Next(Batch* out) {
    if (ctx_->injector != nullptr && ctx_->injector->enabled()) {
      QTF_RETURN_NOT_OK(ctx_->injector->Probe(
          fault_sites::kExecutorNextBatch,
          ctx_->salt ^ HashCombine(static_cast<uint64_t>(seq_),
                                   batch_index_)));
    }
    ++batch_index_;
    out->Clear();
    QTF_ASSIGN_OR_RETURN(bool more, DoNext(out));
    if (more) {
      ctx_->rows += out->num_rows();
      ++ctx_->batches;
    }
    return more;
  }

 protected:
  virtual Result<bool> DoNext(Batch* out) = 0;

  Result<std::shared_ptr<const EvalProgram>> CompileOver(
      const ExprPtr& expr, const std::vector<ColumnId>& layout) {
    ColumnBindings bindings(layout);
    return ctx_->programs->GetOrCompile(expr, bindings,
                                        LayoutFingerprint(layout));
  }

  ExecContext* ctx_;
  std::vector<ColumnId> ids_;
  std::vector<ValueType> types_;
  int seq_;
  uint64_t batch_index_ = 0;
};

/// Builds the passing-row selection vector from a predicate result column.
void SelectTrue(const ColumnVector& v, int n, ArenaVector<int32_t>* sel) {
  sel->clear();
  const uint8_t* nulls = v.nulls();
  const int64_t* vals = v.ints();
  for (int i = 0; i < n; ++i) {
    if (nulls[i] == 0 && vals[i] != 0) sel->push_back(i);
  }
}

// ---- scan -----------------------------------------------------------------

class ScanNode final : public ExecNode {
 public:
  ScanNode(ExecContext* ctx, std::vector<ColumnId> ids, int seq,
           const ColumnarTable* table)
      : ExecNode(ctx, std::move(ids), seq), table_(table) {
    QTF_CHECK(table_->cols.size() == ids_.size());
  }

  Status Init() override { return Status::OK(); }

  Result<bool> DoNext(Batch* out) override {
    if (pos_ >= table_->rows) return false;
    int n = static_cast<int>(
        std::min<int64_t>(ctx_->capacity, table_->rows - pos_));
    for (int c = 0; c < out->num_cols(); ++c) {
      out->col(c).AppendRange(table_->cols[static_cast<size_t>(c)], pos_, n);
    }
    out->set_num_rows(n);
    pos_ += n;
    return true;
  }

 private:
  const ColumnarTable* table_;
  int64_t pos_ = 0;
};

// ---- filter ---------------------------------------------------------------

class FilterNode final : public ExecNode {
 public:
  FilterNode(ExecContext* ctx, std::vector<ColumnId> ids, int seq,
             ExecNode* child, ExprPtr predicate)
      : ExecNode(ctx, std::move(ids), seq),
        child_(child),
        predicate_(std::move(predicate)),
        in_(ctx->arena),
        sel_(MakeArenaVector<int32_t>(ctx->arena)),
        scratch_(ctx->arena) {}

  Status Init() override {
    QTF_RETURN_NOT_OK(child_->Init());
    in_.Configure(child_->ids(), child_->types());
    QTF_ASSIGN_OR_RETURN(program_, CompileOver(predicate_, child_->ids()));
    scratch_.Prepare(*program_);
    return Status::OK();
  }

  Result<bool> DoNext(Batch* out) override {
    for (;;) {
      QTF_ASSIGN_OR_RETURN(bool more, child_->Next(&in_));
      if (!more) return false;
      QTF_ASSIGN_OR_RETURN(const ColumnVector* v,
                           program_->Run(in_, &scratch_));
      SelectTrue(*v, in_.num_rows(), &sel_);
      if (sel_.empty()) continue;
      int n = static_cast<int>(sel_.size());
      for (int c = 0; c < out->num_cols(); ++c) {
        out->col(c).AppendGather(in_.col(c), sel_.data(), n);
      }
      out->set_num_rows(n);
      return true;
    }
  }

 private:
  ExecNode* child_;
  ExprPtr predicate_;
  Batch in_;
  ArenaVector<int32_t> sel_;
  EvalScratch scratch_;
  std::shared_ptr<const EvalProgram> program_;
};

// ---- compute (projection) -------------------------------------------------

class ComputeNode final : public ExecNode {
 public:
  ComputeNode(ExecContext* ctx, std::vector<ColumnId> ids, int seq,
              ExecNode* child, const std::vector<ProjectItem>& items)
      : ExecNode(ctx, std::move(ids), seq),
        child_(child),
        items_(&items),
        in_(ctx->arena) {}

  Status Init() override {
    QTF_RETURN_NOT_OK(child_->Init());
    in_.Configure(child_->ids(), child_->types());
    programs_.reserve(items_->size());
    scratches_.reserve(items_->size());
    for (const ProjectItem& item : *items_) {
      QTF_ASSIGN_OR_RETURN(auto program,
                           CompileOver(item.expr, child_->ids()));
      programs_.push_back(std::move(program));
      scratches_.emplace_back(ctx_->arena);
      scratches_.back().Prepare(*programs_.back());
    }
    return Status::OK();
  }

  Result<bool> DoNext(Batch* out) override {
    QTF_ASSIGN_OR_RETURN(bool more, child_->Next(&in_));
    if (!more) return false;
    int n = in_.num_rows();
    for (size_t c = 0; c < programs_.size(); ++c) {
      QTF_ASSIGN_OR_RETURN(const ColumnVector* v,
                           programs_[c]->Run(in_, &scratches_[c]));
      out->col(static_cast<int>(c)).AppendRange(*v, 0, n);
    }
    out->set_num_rows(n);
    return true;
  }

 private:
  ExecNode* child_;
  const std::vector<ProjectItem>* items_;
  Batch in_;
  std::vector<std::shared_ptr<const EvalProgram>> programs_;
  std::vector<EvalScratch> scratches_;
};

// ---- joins ----------------------------------------------------------------

/// State and emission logic shared by the two join nodes: candidate pair
/// lists, the combined (left ++ right) batch the residual/predicate runs
/// over, and the per-kind output assembly.
class JoinNodeBase : public ExecNode {
 public:
  JoinNodeBase(ExecContext* ctx, std::vector<ColumnId> ids, int seq,
               JoinKind kind, ExecNode* left, ExecNode* right, ExprPtr pred)
      : ExecNode(ctx, std::move(ids), seq),
        kind_(kind),
        left_(left),
        right_(right),
        pred_(std::move(pred)),
        in_(ctx->arena),
        rtmp_(ctx->arena),
        combined_(ctx->arena),
        cand_l_(MakeArenaVector<int32_t>(ctx->arena)),
        cand_r_(MakeArenaVector<int32_t>(ctx->arena)),
        sel_(MakeArenaVector<int32_t>(ctx->arena)),
        matched_(MakeArenaVector<uint8_t>(ctx->arena)),
        scratch_(ctx->arena) {}

  Status Init() override {
    QTF_RETURN_NOT_OK(left_->Init());
    QTF_RETURN_NOT_OK(right_->Init());
    in_.Configure(left_->ids(), left_->types());
    rtmp_.Configure(right_->ids(), right_->types());
    combined_ids_ = left_->ids();
    combined_ids_.insert(combined_ids_.end(), right_->ids().begin(),
                         right_->ids().end());
    std::vector<ValueType> combined_types = left_->types();
    combined_types.insert(combined_types.end(), right_->types().begin(),
                          right_->types().end());
    combined_.Configure(combined_ids_, combined_types);
    if (pred_ != nullptr) {
      QTF_ASSIGN_OR_RETURN(program_, CompileOver(pred_, combined_ids_));
      scratch_.Prepare(*program_);
    }
    build_.Configure(right_->types(), ctx_->arena);
    return Status::OK();
  }

 protected:
  /// Drains the right child into build_.
  Status DrainBuildSide() {
    for (;;) {
      QTF_ASSIGN_OR_RETURN(bool more, right_->Next(&rtmp_));
      if (!more) return Status::OK();
      build_.AppendBatch(rtmp_);
    }
  }

  /// Filters cand_l_/cand_r_ in place through the join predicate (no-op
  /// when there is none): gathers the candidate pairs into combined_, runs
  /// the program, keeps passing pairs.
  Status ApplyPredicate() {
    if (program_ == nullptr || cand_l_.empty()) return Status::OK();
    int n = static_cast<int>(cand_l_.size());
    combined_.Clear();
    int lw = static_cast<int>(left_->ids().size());
    for (int c = 0; c < lw; ++c) {
      combined_.col(c).AppendGather(in_.col(c), cand_l_.data(), n);
    }
    for (size_t c = 0; c < build_.cols.size(); ++c) {
      combined_.col(lw + static_cast<int>(c))
          .AppendGather(build_.cols[c], cand_r_.data(), n);
    }
    combined_.set_num_rows(n);
    QTF_ASSIGN_OR_RETURN(const ColumnVector* v,
                         program_->Run(combined_, &scratch_));
    const uint8_t* nulls = v->nulls();
    const int64_t* vals = v->ints();
    int kept = 0;
    for (int p = 0; p < n; ++p) {
      if (nulls[p] == 0 && vals[p] != 0) {
        cand_l_[static_cast<size_t>(kept)] = cand_l_[static_cast<size_t>(p)];
        cand_r_[static_cast<size_t>(kept)] = cand_r_[static_cast<size_t>(p)];
        ++kept;
      }
    }
    cand_l_.resize(static_cast<size_t>(kept));
    cand_r_.resize(static_cast<size_t>(kept));
    return Status::OK();
  }

  /// Assembles this node's output for the current left batch from the
  /// passing pairs in cand_l_/cand_r_ and the matched_ flags. Returns the
  /// number of rows appended to `out`.
  int EmitForLeftBatch(Batch* out) {
    int n = in_.num_rows();
    int lw = static_cast<int>(left_->ids().size());
    int produced = 0;
    switch (kind_) {
      case JoinKind::kInner: {
        int m = static_cast<int>(cand_l_.size());
        if (m == 0) break;
        for (int c = 0; c < lw; ++c) {
          out->col(c).AppendGather(in_.col(c), cand_l_.data(), m);
        }
        for (size_t c = 0; c < build_.cols.size(); ++c) {
          out->col(lw + static_cast<int>(c))
              .AppendGather(build_.cols[c], cand_r_.data(), m);
        }
        produced = m;
        break;
      }
      case JoinKind::kLeftOuter: {
        int m = static_cast<int>(cand_l_.size());
        for (int c = 0; c < lw; ++c) {
          out->col(c).AppendGather(in_.col(c), cand_l_.data(), m);
        }
        for (size_t c = 0; c < build_.cols.size(); ++c) {
          out->col(lw + static_cast<int>(c))
              .AppendGather(build_.cols[c], cand_r_.data(), m);
        }
        produced = m;
        for (int i = 0; i < n; ++i) {
          if (matched_[static_cast<size_t>(i)] != 0) continue;
          for (int c = 0; c < lw; ++c) out->col(c).AppendFrom(in_.col(c), i);
          for (size_t c = 0; c < build_.cols.size(); ++c) {
            out->col(lw + static_cast<int>(c)).AppendNull();
          }
          ++produced;
        }
        break;
      }
      case JoinKind::kLeftSemi:
      case JoinKind::kLeftAnti: {
        uint8_t want = kind_ == JoinKind::kLeftSemi ? 1 : 0;
        sel_.clear();
        for (int i = 0; i < n; ++i) {
          if (matched_[static_cast<size_t>(i)] == want) sel_.push_back(i);
        }
        int m = static_cast<int>(sel_.size());
        if (m == 0) break;
        for (int c = 0; c < out->num_cols(); ++c) {
          out->col(c).AppendGather(in_.col(c), sel_.data(), m);
        }
        produced = m;
        break;
      }
    }
    out->set_num_rows(produced);
    return produced;
  }

  JoinKind kind_;
  ExecNode* left_;
  ExecNode* right_;
  ExprPtr pred_;  // hash join: residual; NL join: whole predicate
  Batch in_;
  Batch rtmp_;
  Batch combined_;
  std::vector<ColumnId> combined_ids_;
  ColumnSet build_;  // the whole right input, columnar
  ArenaVector<int32_t> cand_l_;
  ArenaVector<int32_t> cand_r_;
  ArenaVector<int32_t> sel_;
  ArenaVector<uint8_t> matched_;
  EvalScratch scratch_;
  std::shared_ptr<const EvalProgram> program_;
};

class HashJoinNode final : public JoinNodeBase {
 public:
  HashJoinNode(ExecContext* ctx, std::vector<ColumnId> ids, int seq,
               const HashJoinOp& op, ExecNode* left, ExecNode* right)
      : JoinNodeBase(ctx, std::move(ids), seq, op.join_kind(), left, right,
                     op.residual()),
        op_(&op),
        chains_(ctx->arena) {}

  Status Init() override {
    QTF_RETURN_NOT_OK(JoinNodeBase::Init());
    ColumnBindings lbind(left_->ids());
    ColumnBindings rbind(right_->ids());
    for (const auto& [lcol, rcol] : op_->equi_pairs()) {
      lkey_pos_.push_back(lbind.PositionOf(lcol));
      rkey_pos_.push_back(rbind.PositionOf(rcol));
    }
    return Status::OK();
  }

  Result<bool> DoNext(Batch* out) override {
    if (!built_) {
      QTF_RETURN_NOT_OK(DrainBuildSide());
      BuildIndex();
      built_ = true;
    }
    const std::vector<const ColumnVector*> bkeys = build_.ColsAt(rkey_pos_);
    for (;;) {
      QTF_ASSIGN_OR_RETURN(bool more, left_->Next(&in_));
      if (!more) return false;
      int n = in_.num_rows();
      const std::vector<const ColumnVector*> lkeys =
          BatchColsAt(in_, lkey_pos_);
      cand_l_.clear();
      cand_r_.clear();
      for (int i = 0; i < n; ++i) {
        // Rows with any NULL key never match (SQL equality).
        bool has_null = false;
        for (const ColumnVector* c : lkeys) {
          if (c->IsNull(i)) {
            has_null = true;
            break;
          }
        }
        if (has_null) continue;
        uint64_t h = KeyHash(lkeys, i);
        for (int32_t j = chains_.First(h); j >= 0; j = chains_.NextEntry(j)) {
          if (chains_.hash_of(j) != h) continue;
          if (!KeysEqual(lkeys, i, bkeys, j)) continue;
          cand_l_.push_back(i);
          cand_r_.push_back(j);
        }
      }
      QTF_RETURN_NOT_OK(ApplyPredicate());
      matched_.assign(static_cast<size_t>(n), 0);
      for (int32_t l : cand_l_) matched_[static_cast<size_t>(l)] = 1;
      if (EmitForLeftBatch(out) > 0) return true;
    }
  }

 private:
  void BuildIndex() {
    chains_.Reset(build_.rows);
    const std::vector<const ColumnVector*> bkeys = build_.ColsAt(rkey_pos_);
    for (int32_t j = 0; j < static_cast<int32_t>(build_.rows); ++j) {
      bool has_null = false;
      for (const ColumnVector* c : bkeys) {
        if (c->IsNull(j)) {
          has_null = true;
          break;
        }
      }
      chains_.Append(has_null ? 0 : KeyHash(bkeys, j), !has_null);
    }
  }

  const HashJoinOp* op_;
  HashChains chains_;
  std::vector<int> lkey_pos_;
  std::vector<int> rkey_pos_;
  bool built_ = false;
};

class NlJoinNode final : public JoinNodeBase {
 public:
  NlJoinNode(ExecContext* ctx, std::vector<ColumnId> ids, int seq,
             const NlJoinOp& op, ExecNode* left, ExecNode* right)
      : JoinNodeBase(ctx, std::move(ids), seq, op.join_kind(), left, right,
                     op.predicate()) {}

  Result<bool> DoNext(Batch* out) override {
    if (!built_) {
      QTF_RETURN_NOT_OK(DrainBuildSide());
      built_ = true;
    }
    for (;;) {
      QTF_ASSIGN_OR_RETURN(bool more, left_->Next(&in_));
      if (!more) return false;
      int n = in_.num_rows();
      matched_.assign(static_cast<size_t>(n), 0);
      int64_t rrows = build_.rows;
      // One whole left batch is handled per Next (so fault-probe counts
      // track batches, not cross-product chunks), but candidate pairs are
      // materialized in chunks of ~capacity left rows at a time to bound
      // the intermediate to max(capacity, |right|) pairs.
      int chunk = rrows > 0
                      ? static_cast<int>(std::max<int64_t>(
                            1, ctx_->capacity / rrows))
                      : n;
      ArenaVector<int32_t> pass_l = MakeArenaVector<int32_t>(ctx_->arena);
      ArenaVector<int32_t> pass_r = MakeArenaVector<int32_t>(ctx_->arena);
      for (int base = 0; base < n && rrows > 0; base += chunk) {
        int m = std::min(chunk, n - base);
        cand_l_.clear();
        cand_r_.clear();
        for (int i = base; i < base + m; ++i) {
          for (int32_t j = 0; j < static_cast<int32_t>(rrows); ++j) {
            cand_l_.push_back(i);
            cand_r_.push_back(j);
          }
        }
        QTF_RETURN_NOT_OK(ApplyPredicate());
        for (int32_t l : cand_l_) matched_[static_cast<size_t>(l)] = 1;
        pass_l.insert(pass_l.end(), cand_l_.begin(), cand_l_.end());
        pass_r.insert(pass_r.end(), cand_r_.begin(), cand_r_.end());
      }
      cand_l_.assign(pass_l.begin(), pass_l.end());
      cand_r_.assign(pass_r.begin(), pass_r.end());
      if (EmitForLeftBatch(out) > 0) return true;
    }
  }

 private:
  bool built_ = false;
};

// ---- aggregation ----------------------------------------------------------

/// Accumulation state for one aggregate over one group; Finish mirrors the
/// reference executor's AggAccumulator semantics exactly (NULL-skipping,
/// empty-SUM -> NULL, AVG -> DOUBLE).
struct AggState {
  int64_t count = 0;
  int64_t sum_int = 0;
  double sum_double = 0.0;
  bool has_extreme = false;
  Value extreme;
};

/// Folds cell `i` of the evaluated argument column into `state`.
/// `arg` is nullptr for COUNT(*).
void AccumulateCell(const AggregateCall& call, const ColumnVector* arg, int i,
                    AggState* state) {
  if (call.kind == AggKind::kCountStar) {
    ++state->count;
    return;
  }
  if (arg->IsNull(i)) return;  // aggregates skip NULLs
  ++state->count;
  switch (call.kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      if (arg->type() == ValueType::kInt64) {
        state->sum_int += arg->ints()[i];
      } else {
        state->sum_double += arg->AsDouble(i);
      }
      break;
    case AggKind::kMin:
    case AggKind::kMax: {
      Value v = arg->ToValue(i);
      int sign = call.kind == AggKind::kMin ? -1 : 1;
      if (!state->has_extreme || v.Compare(state->extreme) * sign > 0) {
        state->extreme = std::move(v);
      }
      state->has_extreme = true;
      break;
    }
  }
}

Value FinishAgg(const AggregateCall& call, const AggState& s) {
  ValueType result_type = call.ResultType();
  switch (call.kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return Value::Int64(s.count);
    case AggKind::kSum:
      if (s.count == 0) return Value::Null(result_type);
      if (result_type == ValueType::kInt64) return Value::Int64(s.sum_int);
      return Value::Double(s.sum_double + static_cast<double>(s.sum_int));
    case AggKind::kAvg: {
      if (s.count == 0) return Value::Null(ValueType::kDouble);
      double total = s.sum_double + static_cast<double>(s.sum_int);
      return Value::Double(total / static_cast<double>(s.count));
    }
    case AggKind::kMin:
    case AggKind::kMax:
      if (!s.has_extreme) return Value::Null(result_type);
      return s.extreme;
  }
  return Value::Null(result_type);
}

/// Shared plumbing for the two aggregate nodes: argument programs and
/// chunked emission of finished groups.
class AggNodeBase : public ExecNode {
 public:
  AggNodeBase(ExecContext* ctx, std::vector<ColumnId> ids, int seq,
              ExecNode* child, const std::vector<ColumnId>& group_cols,
              const std::vector<AggregateItem>& aggregates)
      : ExecNode(ctx, std::move(ids), seq),
        child_(child),
        group_cols_(&group_cols),
        aggregates_(&aggregates),
        in_(ctx->arena) {}

  Status Init() override {
    QTF_RETURN_NOT_OK(child_->Init());
    in_.Configure(child_->ids(), child_->types());
    ColumnBindings bind(child_->ids());
    for (ColumnId id : *group_cols_) gpos_.push_back(bind.PositionOf(id));
    for (const AggregateItem& item : *aggregates_) {
      if (item.call.arg == nullptr) {
        programs_.push_back(nullptr);
        scratches_.emplace_back(ctx_->arena);
      } else {
        QTF_ASSIGN_OR_RETURN(auto program,
                             CompileOver(item.call.arg, child_->ids()));
        programs_.push_back(std::move(program));
        scratches_.emplace_back(ctx_->arena);
        scratches_.back().Prepare(*programs_.back());
      }
    }
    return Status::OK();
  }

 protected:
  /// Evaluates every aggregate argument over in_; results into argcols_
  /// (nullptr for COUNT(*)).
  Status EvalArgs() {
    argcols_.clear();
    for (size_t a = 0; a < programs_.size(); ++a) {
      if (programs_[a] == nullptr) {
        argcols_.push_back(nullptr);
      } else {
        QTF_ASSIGN_OR_RETURN(const ColumnVector* v,
                             programs_[a]->Run(in_, &scratches_[a]));
        argcols_.push_back(v);
      }
    }
    return Status::OK();
  }

  size_t num_aggs() const { return aggregates_->size(); }

  ExecNode* child_;
  const std::vector<ColumnId>* group_cols_;
  const std::vector<AggregateItem>* aggregates_;
  Batch in_;
  std::vector<int> gpos_;
  std::vector<std::shared_ptr<const EvalProgram>> programs_;
  std::vector<EvalScratch> scratches_;
  std::vector<const ColumnVector*> argcols_;
};

class HashAggNode final : public AggNodeBase {
 public:
  HashAggNode(ExecContext* ctx, std::vector<ColumnId> ids, int seq,
              ExecNode* child, const HashAggregateOp& op)
      : AggNodeBase(ctx, std::move(ids), seq, child, op.group_cols(),
                    op.aggregates()),
        chains_(ctx->arena),
        states_(MakeArenaVector<AggState>(ctx->arena)) {}

  Status Init() override {
    QTF_RETURN_NOT_OK(AggNodeBase::Init());
    std::vector<ValueType> key_types;
    for (ColumnId id : *group_cols_) {
      key_types.push_back(ctx_->registry->TypeOf(id));
    }
    keys_.Configure(key_types, ctx_->arena);
    chains_.Reset(0);
    for (size_t k = 0; k < gpos_.size(); ++k) {
      key_all_.push_back(static_cast<int>(k));
    }
    return Status::OK();
  }

  Result<bool> DoNext(Batch* out) override {
    if (!accumulated_) {
      QTF_RETURN_NOT_OK(Accumulate());
      accumulated_ = true;
    }
    // Emit finished groups in first-seen order (same deterministic order as
    // the reference executor), one capacity-sized batch at a time.
    if (emit_pos_ >= keys_.rows) return false;
    size_t naggs = num_aggs();
    int nk = static_cast<int>(gpos_.size());
    int m = static_cast<int>(
        std::min<int64_t>(ctx_->capacity, keys_.rows - emit_pos_));
    for (int g = 0; g < m; ++g) {
      int32_t group = static_cast<int32_t>(emit_pos_) + g;
      for (int k = 0; k < nk; ++k) {
        out->col(k).AppendFrom(keys_.cols[static_cast<size_t>(k)], group);
      }
      for (size_t a = 0; a < naggs; ++a) {
        out->col(nk + static_cast<int>(a))
            .AppendValueCopy(
                FinishAgg((*aggregates_)[a].call,
                          states_[static_cast<size_t>(group) * naggs + a]),
                ctx_->arena);
      }
    }
    out->set_num_rows(m);
    emit_pos_ += m;
    return true;
  }

 private:
  Status Accumulate() {
    size_t naggs = num_aggs();
    for (;;) {
      QTF_ASSIGN_OR_RETURN(bool more, child_->Next(&in_));
      if (!more) break;
      QTF_RETURN_NOT_OK(EvalArgs());
      int n = in_.num_rows();
      const std::vector<const ColumnVector*> gkeys = BatchColsAt(in_, gpos_);
      const std::vector<const ColumnVector*> skeys = keys_.ColsAt(key_all_);
      for (int i = 0; i < n; ++i) {
        // SQL GROUP BY: NULLs of a grouping column form one group
        // (CellHash/CellEquals treat NULL == NULL).
        uint64_t h = KeyHash(gkeys, i);
        int32_t group = -1;
        for (int32_t j = chains_.First(h); j >= 0; j = chains_.NextEntry(j)) {
          if (chains_.hash_of(j) == h && KeysEqual(gkeys, i, skeys, j)) {
            group = j;
            break;
          }
        }
        if (group < 0) {
          group = chains_.size();
          chains_.Append(h, true);
          for (size_t k = 0; k < gpos_.size(); ++k) {
            keys_.cols[k].AppendFrom(in_.col(gpos_[k]), i);
          }
          keys_.rows += 1;
          for (size_t a = 0; a < naggs; ++a) states_.emplace_back();
        }
        for (size_t a = 0; a < naggs; ++a) {
          AccumulateCell((*aggregates_)[a].call, argcols_[a], i,
                         &states_[static_cast<size_t>(group) * naggs + a]);
        }
      }
    }
    // Scalar aggregate over an empty input still produces one row.
    if (gpos_.empty() && keys_.rows == 0) {
      keys_.rows = 1;
      for (size_t a = 0; a < naggs; ++a) states_.emplace_back();
    }
    return Status::OK();
  }

  // Positions 0..nk-1 within keys_ (identity mapping), cached for ColsAt.
  std::vector<int> key_all_;
  ColumnSet keys_;
  HashChains chains_;
  ArenaVector<AggState> states_;
  bool accumulated_ = false;
  int64_t emit_pos_ = 0;
};

class StreamAggNode final : public AggNodeBase {
 public:
  StreamAggNode(ExecContext* ctx, std::vector<ColumnId> ids, int seq,
                ExecNode* child, const StreamAggregateOp& op)
      : AggNodeBase(ctx, std::move(ids), seq, child, op.group_cols(),
                    op.aggregates()) {}

  Status Init() override {
    QTF_RETURN_NOT_OK(AggNodeBase::Init());
    out_buf_.Configure(types_, ctx_->arena);
    return Status::OK();
  }

  Result<bool> DoNext(Batch* out) override {
    if (!accumulated_) {
      QTF_RETURN_NOT_OK(Accumulate());
      accumulated_ = true;
    }
    if (emit_pos_ >= out_buf_.rows) return false;
    int m = static_cast<int>(
        std::min<int64_t>(ctx_->capacity, out_buf_.rows - emit_pos_));
    for (size_t c = 0; c < out_buf_.cols.size(); ++c) {
      out->col(static_cast<int>(c))
          .AppendRange(out_buf_.cols[c], emit_pos_, m);
    }
    out->set_num_rows(m);
    emit_pos_ += m;
    return true;
  }

 private:
  Status Accumulate() {
    size_t naggs = num_aggs();
    for (;;) {
      QTF_ASSIGN_OR_RETURN(bool more, child_->Next(&in_));
      if (!more) break;
      QTF_RETURN_NOT_OK(EvalArgs());
      int n = in_.num_rows();
      for (int i = 0; i < n; ++i) {
        // Adjacent-equal grouping only: the optimizer guarantees input
        // sorted on the group columns. Value::Compare treats NULL == NULL,
        // matching the reference executor's CompareRows key test.
        std::vector<Value> key;
        key.reserve(gpos_.size());
        for (int p : gpos_) key.push_back(in_.col(p).ToValue(i));
        bool boundary = !have_group_;
        if (have_group_) {
          for (size_t k = 0; k < key.size(); ++k) {
            if (key[k].Compare(cur_key_[k]) != 0) {
              boundary = true;
              break;
            }
          }
          if (boundary) FlushGroup();
        }
        if (boundary) {
          cur_key_ = std::move(key);
          cur_states_.assign(naggs, AggState{});
          have_group_ = true;
        }
        for (size_t a = 0; a < naggs; ++a) {
          AccumulateCell((*aggregates_)[a].call, argcols_[a], i,
                         &cur_states_[a]);
        }
      }
    }
    if (have_group_) FlushGroup();
    // Scalar aggregate over an empty input still produces one row.
    if (gpos_.empty() && out_buf_.rows == 0) {
      cur_key_.clear();
      cur_states_.assign(naggs, AggState{});
      FlushGroup();
    }
    return Status::OK();
  }

  void FlushGroup() {
    size_t nk = cur_key_.size();
    for (size_t k = 0; k < nk; ++k) {
      out_buf_.cols[k].AppendValueCopy(cur_key_[k], ctx_->arena);
    }
    for (size_t a = 0; a < cur_states_.size(); ++a) {
      out_buf_.cols[nk + a].AppendValueCopy(
          FinishAgg((*aggregates_)[a].call, cur_states_[a]), ctx_->arena);
    }
    out_buf_.rows += 1;
  }

  ColumnSet out_buf_;
  std::vector<Value> cur_key_;
  std::vector<AggState> cur_states_;
  bool have_group_ = false;
  bool accumulated_ = false;
  int64_t emit_pos_ = 0;
};

// ---- sort -----------------------------------------------------------------

class SortNode final : public ExecNode {
 public:
  SortNode(ExecContext* ctx, std::vector<ColumnId> ids, int seq,
           ExecNode* child, const SortOp& op)
      : ExecNode(ctx, std::move(ids), seq),
        child_(child),
        op_(&op),
        in_(ctx->arena),
        idx_(MakeArenaVector<int32_t>(ctx->arena)) {}

  Status Init() override {
    QTF_RETURN_NOT_OK(child_->Init());
    in_.Configure(child_->ids(), child_->types());
    ColumnBindings bind(child_->ids());
    for (ColumnId id : op_->sort_cols()) {
      sort_pos_.push_back(bind.PositionOf(id));
    }
    buf_.Configure(child_->types(), ctx_->arena);
    return Status::OK();
  }

  Result<bool> DoNext(Batch* out) override {
    if (!sorted_) {
      for (;;) {
        QTF_ASSIGN_OR_RETURN(bool more, child_->Next(&in_));
        if (!more) break;
        buf_.AppendBatch(in_);
      }
      idx_.resize(static_cast<size_t>(buf_.rows));
      for (int32_t i = 0; i < static_cast<int32_t>(buf_.rows); ++i) {
        idx_[static_cast<size_t>(i)] = i;
      }
      const std::vector<const ColumnVector*> keys = buf_.ColsAt(sort_pos_);
      // Stable, NULL-first ascending — the reference executor's order.
      std::stable_sort(idx_.begin(), idx_.end(),
                       [&keys](int32_t a, int32_t b) {
                         for (const ColumnVector* c : keys) {
                           int cmp = c->CellCompare(a, *c, b);
                           if (cmp != 0) return cmp < 0;
                         }
                         return false;
                       });
      sorted_ = true;
    }
    if (emit_pos_ >= buf_.rows) return false;
    int m = static_cast<int>(
        std::min<int64_t>(ctx_->capacity, buf_.rows - emit_pos_));
    for (size_t c = 0; c < buf_.cols.size(); ++c) {
      out->col(static_cast<int>(c))
          .AppendGather(buf_.cols[c], idx_.data() + emit_pos_, m);
    }
    out->set_num_rows(m);
    emit_pos_ += m;
    return true;
  }

 private:
  ExecNode* child_;
  const SortOp* op_;
  Batch in_;
  ColumnSet buf_;
  ArenaVector<int32_t> idx_;
  std::vector<int> sort_pos_;
  bool sorted_ = false;
  int64_t emit_pos_ = 0;
};

// ---- concat / distinct ----------------------------------------------------

class ConcatNode final : public ExecNode {
 public:
  ConcatNode(ExecContext* ctx, std::vector<ColumnId> ids, int seq,
             const ConcatOp& op, ExecNode* left, ExecNode* right)
      : ExecNode(ctx, std::move(ids), seq),
        op_(&op),
        left_(left),
        right_(right),
        lin_(ctx->arena),
        rin_(ctx->arena) {}

  Status Init() override {
    QTF_RETURN_NOT_OK(left_->Init());
    QTF_RETURN_NOT_OK(right_->Init());
    // Each child may emit its columns in a different order than the union
    // branch it implements (e.g. after join commutativity); output position
    // k reads the child column carrying id left_cols[k] / right_cols[k].
    ColumnBindings lbind(left_->ids());
    ColumnBindings rbind(right_->ids());
    for (size_t k = 0; k < ids_.size(); ++k) {
      lpos_.push_back(lbind.PositionOf(op_->left_cols()[k]));
      rpos_.push_back(rbind.PositionOf(op_->right_cols()[k]));
      // A rewrite that mismaps union columns yields such a plan; fail the
      // execution instead of the process.
      if (left_->types()[static_cast<size_t>(lpos_[k])] != types_[k] ||
          right_->types()[static_cast<size_t>(rpos_[k])] != types_[k]) {
        return Status::Internal(
            "UNION ALL branches must agree on column types");
      }
    }
    lin_.Configure(left_->ids(), left_->types());
    rin_.Configure(right_->ids(), right_->types());
    return Status::OK();
  }

  Result<bool> DoNext(Batch* out) override {
    while (!left_done_) {
      QTF_ASSIGN_OR_RETURN(bool more, left_->Next(&lin_));
      if (!more) {
        left_done_ = true;
        break;
      }
      PassThrough(lin_, lpos_, out);
      return true;
    }
    QTF_ASSIGN_OR_RETURN(bool more, right_->Next(&rin_));
    if (!more) return false;
    PassThrough(rin_, rpos_, out);
    return true;
  }

 private:
  static void PassThrough(const Batch& in, const std::vector<int>& pos,
                          Batch* out) {
    for (int c = 0; c < out->num_cols(); ++c) {
      out->col(c).AppendRange(in.col(pos[static_cast<size_t>(c)]), 0,
                              in.num_rows());
    }
    out->set_num_rows(in.num_rows());
  }

  const ConcatOp* op_;
  ExecNode* left_;
  ExecNode* right_;
  Batch lin_;
  Batch rin_;
  std::vector<int> lpos_;
  std::vector<int> rpos_;
  bool left_done_ = false;
};

class DistinctNode final : public ExecNode {
 public:
  DistinctNode(ExecContext* ctx, std::vector<ColumnId> ids, int seq,
               ExecNode* child)
      : ExecNode(ctx, std::move(ids), seq),
        child_(child),
        in_(ctx->arena),
        chains_(ctx->arena),
        sel_(MakeArenaVector<int32_t>(ctx->arena)) {}

  Status Init() override {
    QTF_RETURN_NOT_OK(child_->Init());
    in_.Configure(child_->ids(), child_->types());
    seen_.Configure(child_->types(), ctx_->arena);
    chains_.Reset(0);
    for (size_t c = 0; c < types_.size(); ++c) {
      all_pos_.push_back(static_cast<int>(c));
    }
    return Status::OK();
  }

  Result<bool> DoNext(Batch* out) override {
    for (;;) {
      QTF_ASSIGN_OR_RETURN(bool more, child_->Next(&in_));
      if (!more) return false;
      int n = in_.num_rows();
      const std::vector<const ColumnVector*> rowkeys =
          BatchColsAt(in_, all_pos_);
      const std::vector<const ColumnVector*> seenkeys = seen_.ColsAt(all_pos_);
      sel_.clear();
      for (int i = 0; i < n; ++i) {
        // Distinct-ness uses grouping equality (NULL == NULL), matching
        // the reference executor's Row-level hash set.
        uint64_t h = KeyHash(rowkeys, i);
        bool dup = false;
        for (int32_t j = chains_.First(h); j >= 0;
             j = chains_.NextEntry(j)) {
          if (chains_.hash_of(j) == h && KeysEqual(rowkeys, i, seenkeys, j)) {
            dup = true;
            break;
          }
        }
        if (dup) continue;
        chains_.Append(h, true);
        for (size_t c = 0; c < seen_.cols.size(); ++c) {
          seen_.cols[c].AppendFrom(in_.col(static_cast<int>(c)), i);
        }
        seen_.rows += 1;
        sel_.push_back(i);
      }
      if (sel_.empty()) continue;
      int m = static_cast<int>(sel_.size());
      for (int c = 0; c < out->num_cols(); ++c) {
        out->col(c).AppendGather(in_.col(c), sel_.data(), m);
      }
      out->set_num_rows(m);
      return true;
    }
  }

 private:
  ExecNode* child_;
  Batch in_;
  ColumnSet seen_;
  HashChains chains_;
  ArenaVector<int32_t> sel_;
  std::vector<int> all_pos_;
};

// ---- plan translation -----------------------------------------------------

/// Translates a physical plan into an arena-allocated node tree, numbering
/// nodes in pre-order (the fault-key node sequence).
Result<ExecNode*> BuildNode(const PhysicalOp& op, ExecContext* ctx,
                            int* seq) {
  int myseq = (*seq)++;
  switch (op.kind()) {
    case PhysicalOpKind::kTableScan: {
      const auto& scan = static_cast<const TableScanOp&>(op);
      QTF_ASSIGN_OR_RETURN(const ColumnarTable* table,
                           ctx->tables(scan.table()));
      return static_cast<ExecNode*>(ctx->arena->New<ScanNode>(
          ctx, scan.OutputColumns(), myseq, table));
    }
    case PhysicalOpKind::kFilter: {
      const auto& filter = static_cast<const FilterOp&>(op);
      QTF_ASSIGN_OR_RETURN(ExecNode* child,
                           BuildNode(*op.child(0), ctx, seq));
      return static_cast<ExecNode*>(ctx->arena->New<FilterNode>(
          ctx, op.OutputColumns(), myseq, child, filter.predicate()));
    }
    case PhysicalOpKind::kCompute: {
      const auto& compute = static_cast<const ComputeOp&>(op);
      QTF_ASSIGN_OR_RETURN(ExecNode* child,
                           BuildNode(*op.child(0), ctx, seq));
      return static_cast<ExecNode*>(ctx->arena->New<ComputeNode>(
          ctx, op.OutputColumns(), myseq, child, compute.items()));
    }
    case PhysicalOpKind::kNlJoin: {
      const auto& join = static_cast<const NlJoinOp&>(op);
      QTF_ASSIGN_OR_RETURN(ExecNode* left, BuildNode(*op.child(0), ctx, seq));
      QTF_ASSIGN_OR_RETURN(ExecNode* right,
                           BuildNode(*op.child(1), ctx, seq));
      return static_cast<ExecNode*>(ctx->arena->New<NlJoinNode>(
          ctx, op.OutputColumns(), myseq, join, left, right));
    }
    case PhysicalOpKind::kHashJoin: {
      const auto& join = static_cast<const HashJoinOp&>(op);
      QTF_ASSIGN_OR_RETURN(ExecNode* left, BuildNode(*op.child(0), ctx, seq));
      QTF_ASSIGN_OR_RETURN(ExecNode* right,
                           BuildNode(*op.child(1), ctx, seq));
      return static_cast<ExecNode*>(ctx->arena->New<HashJoinNode>(
          ctx, op.OutputColumns(), myseq, join, left, right));
    }
    case PhysicalOpKind::kHashAggregate: {
      const auto& agg = static_cast<const HashAggregateOp&>(op);
      QTF_ASSIGN_OR_RETURN(ExecNode* child,
                           BuildNode(*op.child(0), ctx, seq));
      return static_cast<ExecNode*>(ctx->arena->New<HashAggNode>(
          ctx, op.OutputColumns(), myseq, child, agg));
    }
    case PhysicalOpKind::kStreamAggregate: {
      const auto& agg = static_cast<const StreamAggregateOp&>(op);
      QTF_ASSIGN_OR_RETURN(ExecNode* child,
                           BuildNode(*op.child(0), ctx, seq));
      return static_cast<ExecNode*>(ctx->arena->New<StreamAggNode>(
          ctx, op.OutputColumns(), myseq, child, agg));
    }
    case PhysicalOpKind::kSort: {
      const auto& sort = static_cast<const SortOp&>(op);
      QTF_ASSIGN_OR_RETURN(ExecNode* child,
                           BuildNode(*op.child(0), ctx, seq));
      return static_cast<ExecNode*>(ctx->arena->New<SortNode>(
          ctx, op.OutputColumns(), myseq, child, sort));
    }
    case PhysicalOpKind::kConcat: {
      const auto& concat = static_cast<const ConcatOp&>(op);
      QTF_ASSIGN_OR_RETURN(ExecNode* left, BuildNode(*op.child(0), ctx, seq));
      QTF_ASSIGN_OR_RETURN(ExecNode* right,
                           BuildNode(*op.child(1), ctx, seq));
      return static_cast<ExecNode*>(ctx->arena->New<ConcatNode>(
          ctx, op.OutputColumns(), myseq, concat, left, right));
    }
    case PhysicalOpKind::kHashDistinct: {
      QTF_ASSIGN_OR_RETURN(ExecNode* child,
                           BuildNode(*op.child(0), ctx, seq));
      return static_cast<ExecNode*>(ctx->arena->New<DistinctNode>(
          ctx, op.OutputColumns(), myseq, child));
    }
  }
  return Status::Internal("unknown physical operator");
}

}  // namespace

// ---- Executor -------------------------------------------------------------

void Executor::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_rows_ = m_batches_ = m_arena_bytes_ = nullptr;
    owned_programs_.set_metrics(nullptr, nullptr);
    return;
  }
  m_rows_ = metrics->counter("qtf.exec.rows_produced");
  m_batches_ = metrics->counter("qtf.exec.batches");
  m_arena_bytes_ = metrics->counter("qtf.exec.arena_bytes");
  // Hit/miss wiring covers the private cache only; a shared cache's owner
  // wires its own counters (set_program_cache doc).
  owned_programs_.set_metrics(metrics->counter("qtf.exec.eval_cache_hits"),
                              metrics->counter("qtf.exec.eval_cache_misses"));
}

Result<const exec_internal::ColumnarTable*> Executor::GetColumnarTable(
    const TableDef& table) {
  auto it = table_cache_.find(table.name());
  if (it != table_cache_.end()) return it->second.get();
  QTF_ASSIGN_OR_RETURN(std::shared_ptr<const TableData> data,
                       db_->GetTableData(table.name()));
  auto columnar = std::make_unique<exec_internal::ColumnarTable>();
  columnar->pin = data;
  columnar->rows = data->row_count();
  const std::vector<ColumnDef>& defs = table.columns();
  columnar->cols.reserve(defs.size());
  for (const ColumnDef& def : defs) {
    ColumnVector cv(def.type, &cache_arena_);
    cv.Reserve(static_cast<int>(columnar->rows));
    columnar->cols.push_back(std::move(cv));
  }
  for (const Row& row : data->rows()) {
    QTF_CHECK(row.size() == defs.size());
    for (size_t c = 0; c < defs.size(); ++c) {
      // Borrowed string cells point into the pinned TableData.
      columnar->cols[c].AppendValue(row[c]);
    }
  }
  const exec_internal::ColumnarTable* result = columnar.get();
  table_cache_.emplace(table.name(), std::move(columnar));
  return result;
}

Result<ResultSet> Executor::Execute(const PhysicalOp& plan) {
  // One-shot release of the previous query's physical state.
  arena_.Reset();

  ExecContext ctx;
  ctx.registry = registry_;
  ctx.arena = &arena_;
  ctx.programs = programs_;
  ctx.injector = fault_injector_;
  ctx.salt = fault_salt_;
  ctx.capacity = batch_capacity_;
  ctx.tables = [this](const TableDef& table) {
    return GetColumnarTable(table);
  };

  int seq = 0;
  QTF_ASSIGN_OR_RETURN(ExecNode* root, BuildNode(plan, &ctx, &seq));
  QTF_RETURN_NOT_OK(root->Init());

  Batch out(&arena_);
  out.Configure(root->ids(), root->types());
  ResultSet result;
  result.columns = plan.OutputColumns();
  for (;;) {
    QTF_ASSIGN_OR_RETURN(bool more, root->Next(&out));
    if (!more) break;
    int n = out.num_rows();
    for (int i = 0; i < n; ++i) result.rows.push_back(out.RowAt(i));
  }

  rows_produced_ += ctx.rows;
  last_arena_bytes_ = static_cast<int64_t>(arena_.bytes_allocated());
  if (m_rows_ != nullptr) m_rows_->Increment(ctx.rows);
  if (m_batches_ != nullptr) m_batches_->Increment(ctx.batches);
  if (m_arena_bytes_ != nullptr) m_arena_bytes_->Increment(last_arena_bytes_);
  return result;
}

}  // namespace qtf
