#include "sql/binder.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "common/string_util.h"
#include "exec/aggregate_ops.h"
#include "exec/apply_ops.h"
#include "exec/basic_ops.h"
#include "exec/join_ops.h"
#include "exec/parallel.h"
#include "exec/sort_ops.h"
#include "storage/heap_table.h"

namespace htg::sql {

using exec::ExprPtr;
using exec::OperatorPtr;

// One visible column during name resolution.
struct ScopeColumn {
  std::string table_alias;
  std::string name;
  DataType type = DataType::kString;
};

struct Binder::Scope {
  std::vector<ScopeColumn> cols;

  Result<int> Resolve(const std::vector<std::string>& parts) const {
    if (parts.empty()) return Status::BindError("empty identifier");
    const std::string& name = parts.back();
    const std::string* qual = parts.size() > 1 ? &parts[parts.size() - 2]
                                               : nullptr;
    int found = -1;
    for (int i = 0; i < static_cast<int>(cols.size()); ++i) {
      if (!EqualsIgnoreCase(cols[i].name, name)) continue;
      if (qual != nullptr && !EqualsIgnoreCase(cols[i].table_alias, *qual)) {
        continue;
      }
      if (found >= 0) {
        return Status::BindError("ambiguous column: " + name);
      }
      found = i;
    }
    if (found < 0) {
      return Status::BindError("unknown column: " +
                               (qual ? *qual + "." + name : name));
    }
    return found;
  }

  void Append(const std::string& alias, const Schema& schema) {
    for (const Column& c : schema.columns()) {
      cols.push_back({alias, c.name, c.type});
    }
  }

  // Indexes of the columns `keep` names, ascending.
  std::vector<int> Kept(const NameSet& keep) const;

  // The columns at `indexes`, in that order.
  Scope Project(const std::vector<int>& indexes) const {
    Scope out;
    for (int i : indexes) out.cols.push_back(cols[i]);
    return out;
  }
};

// Required columns: the names, by bare column name, that a plan stage must
// hand upward. Matching ignores qualifiers, so `a.x` keeps every column
// named x on every join side. That is conservative: a kept column that is
// not used costs a copy, but a name can never resolve differently (or
// stop being ambiguous) than it would over the unpruned input.
struct Binder::NameSet {
  bool all = false;             // a bare * keeps every column
  std::set<std::string> names;  // upper-cased

  bool Has(const std::string& name) const {
    return all || names.count(ToUpper(name)) > 0;
  }

  // Adds every identifier in `e`.
  void Add(const AstExpr& e) {
    if (e.kind == AstExpr::Kind::kIdent) names.insert(ToUpper(e.ident.back()));
    for (const AstExprPtr& a : e.args) Add(*a);
    for (const AstExprPtr& o : e.over_order) Add(*o);
    for (const AstExpr* child : {e.left.get(), e.right.get(), e.operand.get(),
                                 e.case_else.get(), e.between_low.get(),
                                 e.between_high.get()}) {
      if (child != nullptr) Add(*child);
    }
    for (const auto& [c, r] : e.case_branches) {
      Add(*c);
      Add(*r);
    }
    for (const AstExprPtr& i : e.in_list) Add(*i);
  }
};

std::vector<int> Binder::Scope::Kept(const NameSet& keep) const {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(cols.size()); ++i) {
    if (keep.Has(cols[i].name)) out.push_back(i);
  }
  return out;
}

// Post-aggregation resolution: expression text → aggregate-output column.
struct Binder::AggScope {
  std::vector<std::string> group_texts;  // canonical text of GROUP BY exprs
  std::vector<std::string> agg_texts;    // canonical text of aggregate calls
  Schema schema;                         // group columns then agg columns
};

struct Binder::BindContext {
  const Scope* scope = nullptr;      // pre-agg input columns
  const AggScope* agg = nullptr;     // post-agg text matching
  // window-call text → appended column index.
  const std::map<std::string, int>* window = nullptr;
  Database* db = nullptr;
};

struct Binder::FromResult {
  OperatorPtr op;
  Scope scope;
  // Set when the FROM clause reads one base table (heap or clustered),
  // optionally extended by CROSS APPLY: the scan that takes WHERE's scan
  // predicate. scan_origin[i] is the schema column that scope column i
  // carries unchanged from it, or -1. A regular join clears both.
  exec::TableScanOp* base_scan = nullptr;
  std::vector<int> scan_origin;
};

namespace {

bool IsAggregateCall(const udf::FunctionRegistry& registry,
                     const AstExpr& e) {
  return e.kind == AstExpr::Kind::kCall && !e.has_over &&
         registry.FindAggregate(e.call_name) != nullptr;
}

// Walks an AST collecting aggregate calls (and, independently, window
// calls) in order of first appearance.
void CollectCalls(const udf::FunctionRegistry& registry, const AstExpr& e,
                  std::vector<const AstExpr*>* aggs,
                  std::vector<const AstExpr*>* windows) {
  if (e.kind == AstExpr::Kind::kCall) {
    if (e.has_over) {
      if (windows != nullptr) {
        bool seen = false;
        for (const AstExpr* w : *windows) {
          if (w->ToText() == e.ToText()) seen = true;
        }
        if (!seen) windows->push_back(&e);
      }
      // Aggregates may appear inside OVER (ORDER BY ...).
      for (const AstExprPtr& k : e.over_order) {
        CollectCalls(registry, *k, aggs, windows);
      }
      for (const AstExprPtr& a : e.args) {
        CollectCalls(registry, *a, aggs, windows);
      }
      return;
    }
    if (registry.FindAggregate(e.call_name) != nullptr) {
      bool seen = false;
      for (const AstExpr* a : *aggs) {
        if (a->ToText() == e.ToText()) seen = true;
      }
      if (!seen) aggs->push_back(&e);
      return;  // no nested aggregates
    }
  }
  for (const AstExprPtr& a : e.args) CollectCalls(registry, *a, aggs, windows);
  if (e.left) CollectCalls(registry, *e.left, aggs, windows);
  if (e.right) CollectCalls(registry, *e.right, aggs, windows);
  if (e.operand) CollectCalls(registry, *e.operand, aggs, windows);
  for (const auto& [c, r] : e.case_branches) {
    CollectCalls(registry, *c, aggs, windows);
    CollectCalls(registry, *r, aggs, windows);
  }
  if (e.case_else) CollectCalls(registry, *e.case_else, aggs, windows);
  for (const AstExprPtr& i : e.in_list) CollectCalls(registry, *i, aggs, windows);
}

// Splits an AST condition into AND-ed conjuncts.
void SplitConjuncts(const AstExpr* e, std::vector<const AstExpr*>* out) {
  if (e->kind == AstExpr::Kind::kBinary && e->bin_op == exec::BinaryOp::kAnd) {
    SplitConjuncts(e->left.get(), out);
    SplitConjuncts(e->right.get(), out);
    return;
  }
  out->push_back(e);
}

// The scan predicate of a bound WHERE: its top-level AND conjuncts of the
// form `column op literal` or `literal op column` (flipped), with a
// non-NULL literal and a column that `origin` traces to the scan.
// BETWEEN binds as two such conjuncts.
void ExtractScanTerms(const exec::Expr& e, const std::vector<int>& origin,
                      storage::ScanPredicate* out) {
  const auto* bin = dynamic_cast<const exec::BinaryExpr*>(&e);
  if (bin == nullptr) return;
  if (bin->op() == exec::BinaryOp::kAnd) {
    ExtractScanTerms(*bin->left(), origin, out);
    ExtractScanTerms(*bin->right(), origin, out);
    return;
  }
  storage::ScanOp op;
  switch (bin->op()) {
    case exec::BinaryOp::kEq:
      op = storage::ScanOp::kEq;
      break;
    case exec::BinaryOp::kLt:
      op = storage::ScanOp::kLt;
      break;
    case exec::BinaryOp::kLe:
      op = storage::ScanOp::kLe;
      break;
    case exec::BinaryOp::kGt:
      op = storage::ScanOp::kGt;
      break;
    case exec::BinaryOp::kGe:
      op = storage::ScanOp::kGe;
      break;
    default:
      return;
  }
  const auto* col = dynamic_cast<const exec::ColumnRefExpr*>(bin->left());
  const auto* lit = dynamic_cast<const exec::LiteralExpr*>(bin->right());
  if (col == nullptr || lit == nullptr) {
    // lit op col  ==  col op' lit with the comparison mirrored.
    col = dynamic_cast<const exec::ColumnRefExpr*>(bin->right());
    lit = dynamic_cast<const exec::LiteralExpr*>(bin->left());
    if (col == nullptr || lit == nullptr) return;
    switch (op) {
      case storage::ScanOp::kLt:
        op = storage::ScanOp::kGt;
        break;
      case storage::ScanOp::kLe:
        op = storage::ScanOp::kGe;
        break;
      case storage::ScanOp::kGt:
        op = storage::ScanOp::kLt;
        break;
      case storage::ScanOp::kGe:
        op = storage::ScanOp::kLe;
        break;
      case storage::ScanOp::kEq:
        break;
    }
  }
  if (lit->value().is_null() ||
      col->index() >= static_cast<int>(origin.size()) ||
      origin[col->index()] < 0) {
    return;
  }
  out->terms.push_back({origin[col->index()], op, lit->value()});
}

ExprPtr AndTogether(std::vector<ExprPtr> preds) {
  ExprPtr result;
  for (ExprPtr& p : preds) {
    if (result == nullptr) {
      result = std::move(p);
    } else {
      result = std::make_unique<exec::BinaryExpr>(
          exec::BinaryOp::kAnd, std::move(result), std::move(p));
    }
  }
  return result;
}

}  // namespace

Result<ExprPtr> Binder::BindValueExpr(const AstExpr& ast) {
  BindContext ctx;
  ctx.db = db_;
  return BindExpr(ast, ctx);
}

Result<std::vector<ExprPtr>> Binder::BindExprs(
    const std::vector<AstExprPtr>& asts, const BindContext& ctx) {
  std::vector<ExprPtr> out;
  out.reserve(asts.size());
  for (const AstExprPtr& a : asts) {
    HTG_ASSIGN_OR_RETURN(ExprPtr e, BindExpr(*a, ctx));
    out.push_back(std::move(e));
  }
  return out;
}

Result<ExprPtr> Binder::BindExpr(const AstExpr& ast, const BindContext& ctx) {
  // Post-aggregation text matching takes priority: a subtree that spells a
  // GROUP BY expression or a collected aggregate becomes a column of the
  // aggregate's output.
  if (ctx.agg != nullptr) {
    const std::string text = ast.ToText();
    for (size_t i = 0; i < ctx.agg->group_texts.size(); ++i) {
      if (ctx.agg->group_texts[i] == text) {
        return ExprPtr(std::make_unique<exec::ColumnRefExpr>(
            static_cast<int>(i), ctx.agg->schema.column(i).name,
            ctx.agg->schema.column(i).type));
      }
    }
    for (size_t j = 0; j < ctx.agg->agg_texts.size(); ++j) {
      if (ctx.agg->agg_texts[j] == text) {
        const int idx = static_cast<int>(ctx.agg->group_texts.size() + j);
        return ExprPtr(std::make_unique<exec::ColumnRefExpr>(
            idx, ctx.agg->schema.column(idx).name,
            ctx.agg->schema.column(idx).type));
      }
    }
  }
  if (ctx.window != nullptr && ast.kind == AstExpr::Kind::kCall &&
      ast.has_over) {
    auto it = ctx.window->find(ast.ToText());
    if (it != ctx.window->end()) {
      return ExprPtr(std::make_unique<exec::ColumnRefExpr>(
          it->second, ast.ToText(), DataType::kInt64));
    }
    return Status::BindError("window function not planned: " + ast.ToText());
  }

  switch (ast.kind) {
    case AstExpr::Kind::kLiteral:
      return ExprPtr(std::make_unique<exec::LiteralExpr>(ast.literal));
    case AstExpr::Kind::kIdent: {
      if (ctx.scope == nullptr) {
        return Status::BindError(
            "column '" + ast.ident.back() +
            "' is invalid here (not in GROUP BY or an aggregate)");
      }
      HTG_ASSIGN_OR_RETURN(int idx, ctx.scope->Resolve(ast.ident));
      const ScopeColumn& col = ctx.scope->cols[idx];
      return ExprPtr(
          std::make_unique<exec::ColumnRefExpr>(idx, col.name, col.type));
    }
    case AstExpr::Kind::kStar:
      return Status::BindError("'*' is not valid in this context");
    case AstExpr::Kind::kUnary: {
      HTG_ASSIGN_OR_RETURN(ExprPtr operand, BindExpr(*ast.operand, ctx));
      return ExprPtr(std::make_unique<exec::UnaryExpr>(
          ast.unary_not ? exec::UnaryExpr::Op::kNot
                        : exec::UnaryExpr::Op::kNegate,
          std::move(operand)));
    }
    case AstExpr::Kind::kBinary: {
      HTG_ASSIGN_OR_RETURN(ExprPtr left, BindExpr(*ast.left, ctx));
      HTG_ASSIGN_OR_RETURN(ExprPtr right, BindExpr(*ast.right, ctx));
      return ExprPtr(std::make_unique<exec::BinaryExpr>(
          ast.bin_op, std::move(left), std::move(right)));
    }
    case AstExpr::Kind::kCall: {
      if (IsAggregateCall(*db_->functions(), ast)) {
        return Status::BindError("aggregate '" + ast.call_name +
                                 "' is not valid in this context");
      }
      const udf::ScalarFunction* fn =
          db_->functions()->FindScalar(ast.call_name);
      if (fn == nullptr) {
        return Status::BindError("unknown function: " + ast.call_name);
      }
      const int n = static_cast<int>(ast.args.size());
      if (n < fn->min_args || n > fn->max_args) {
        return Status::BindError(StringPrintf(
            "%s takes %d..%d arguments, got %d", fn->name.c_str(),
            fn->min_args, fn->max_args, n));
      }
      HTG_ASSIGN_OR_RETURN(std::vector<ExprPtr> args,
                           BindExprs(ast.args, ctx));
      return ExprPtr(
          std::make_unique<exec::FnCallExpr>(fn, std::move(args)));
    }
    case AstExpr::Kind::kCast: {
      HTG_ASSIGN_OR_RETURN(ExprPtr operand, BindExpr(*ast.operand, ctx));
      return ExprPtr(
          std::make_unique<exec::CastExpr>(std::move(operand), ast.cast_type));
    }
    case AstExpr::Kind::kIsNull: {
      HTG_ASSIGN_OR_RETURN(ExprPtr operand, BindExpr(*ast.operand, ctx));
      return ExprPtr(
          std::make_unique<exec::IsNullExpr>(std::move(operand), ast.is_not));
    }
    case AstExpr::Kind::kCase: {
      std::vector<std::pair<ExprPtr, ExprPtr>> branches;
      for (const auto& [c, r] : ast.case_branches) {
        HTG_ASSIGN_OR_RETURN(ExprPtr cond, BindExpr(*c, ctx));
        HTG_ASSIGN_OR_RETURN(ExprPtr result, BindExpr(*r, ctx));
        branches.emplace_back(std::move(cond), std::move(result));
      }
      ExprPtr else_expr;
      if (ast.case_else) {
        HTG_ASSIGN_OR_RETURN(else_expr, BindExpr(*ast.case_else, ctx));
      }
      return ExprPtr(std::make_unique<exec::CaseExpr>(std::move(branches),
                                                      std::move(else_expr)));
    }
    case AstExpr::Kind::kLike: {
      HTG_ASSIGN_OR_RETURN(ExprPtr operand, BindExpr(*ast.operand, ctx));
      return ExprPtr(std::make_unique<exec::LikeExpr>(
          std::move(operand), ast.like_pattern, ast.is_not));
    }
    case AstExpr::Kind::kBetween: {
      // a BETWEEN lo AND hi  ⇒  a >= lo AND a <= hi.
      HTG_ASSIGN_OR_RETURN(ExprPtr low_subject, BindExpr(*ast.operand, ctx));
      HTG_ASSIGN_OR_RETURN(ExprPtr high_subject, BindExpr(*ast.operand, ctx));
      HTG_ASSIGN_OR_RETURN(ExprPtr low, BindExpr(*ast.between_low, ctx));
      HTG_ASSIGN_OR_RETURN(ExprPtr high, BindExpr(*ast.between_high, ctx));
      ExprPtr range = std::make_unique<exec::BinaryExpr>(
          exec::BinaryOp::kAnd,
          std::make_unique<exec::BinaryExpr>(exec::BinaryOp::kGe,
                                             std::move(low_subject),
                                             std::move(low)),
          std::make_unique<exec::BinaryExpr>(exec::BinaryOp::kLe,
                                             std::move(high_subject),
                                             std::move(high)));
      if (ast.is_not) {
        range = std::make_unique<exec::UnaryExpr>(exec::UnaryExpr::Op::kNot,
                                                  std::move(range));
      }
      return range;
    }
    case AstExpr::Kind::kIn: {
      // x IN (a, b) desugars to x = a OR x = b.
      std::vector<ExprPtr> eqs;
      for (const AstExprPtr& item : ast.in_list) {
        HTG_ASSIGN_OR_RETURN(ExprPtr subject, BindExpr(*ast.operand, ctx));
        HTG_ASSIGN_OR_RETURN(ExprPtr value, BindExpr(*item, ctx));
        eqs.push_back(std::make_unique<exec::BinaryExpr>(
            exec::BinaryOp::kEq, std::move(subject), std::move(value)));
      }
      ExprPtr ors;
      for (ExprPtr& e : eqs) {
        ors = ors == nullptr
                  ? std::move(e)
                  : std::make_unique<exec::BinaryExpr>(
                        exec::BinaryOp::kOr, std::move(ors), std::move(e));
      }
      if (ast.is_not) {
        ors = std::make_unique<exec::UnaryExpr>(exec::UnaryExpr::Op::kNot,
                                                std::move(ors));
      }
      return ors;
    }
  }
  return Status::Internal("unhandled AST expression kind");
}

Result<Binder::FromResult> Binder::BindTableRef(const TableRef& ref,
                                               const NameSet& needed,
                                               const Exchange* exchange) {
  FromResult out;
  switch (ref.kind) {
    case TableRef::Kind::kTable: {
      HTG_ASSIGN_OR_RETURN(catalog::TableDef * table, db_->GetTable(ref.name));
      const std::string alias = ref.alias.empty() ? ref.name : ref.alias;
      Scope full;
      full.Append(alias, table->schema);
      std::vector<int> columns = full.Kept(needed);
      out.scope = full.Project(columns);
      out.scan_origin = columns;
      auto scan =
          std::make_unique<exec::TableScanOp>(table, std::move(columns));
      out.base_scan = scan.get();
      if (exchange != nullptr) {
        out.op = std::make_unique<exec::DistributeStreamsOp>(
            std::move(scan), exchange->dop, exchange->morsel_pages);
      } else {
        out.op = std::move(scan);
      }
      return out;
    }
    case TableRef::Kind::kTvf: {
      const udf::TableFunction* fn =
          db_->functions()->FindTableFunction(ref.name);
      if (fn == nullptr) {
        return Status::BindError("unknown table function: " + ref.name);
      }
      BindContext ctx;
      ctx.db = db_;
      HTG_ASSIGN_OR_RETURN(std::vector<ExprPtr> args, BindExprs(ref.args, ctx));
      // Constant-fold literal arguments for schema binding.
      std::vector<Value> const_args;
      udf::EvalContext eval = db_->MakeEvalContext();
      for (const ExprPtr& a : args) {
        Result<Value> v = a->Eval(&eval, Row{});
        const_args.push_back(v.ok() ? std::move(*v) : Value::Null());
      }
      HTG_ASSIGN_OR_RETURN(Schema schema, fn->BindSchema(const_args));
      const std::string alias = ref.alias.empty() ? ref.name : ref.alias;
      out.scope.Append(alias, schema);
      out.op = std::make_unique<exec::TvfScanOp>(fn, std::move(args),
                                                 std::move(schema));
      return out;
    }
    case TableRef::Kind::kSubquery: {
      HTG_ASSIGN_OR_RETURN(OperatorPtr sub, BindSelect(*ref.subquery));
      out.scope.Append(ref.alias, sub->output_schema());
      out.op = std::move(sub);
      return out;
    }
    case TableRef::Kind::kOpenRowset: {
      auto op = std::make_unique<exec::OpenRowsetOp>(ref.bulk_path);
      out.scope.Append(ref.alias, op->output_schema());
      out.op = std::move(op);
      return out;
    }
    case TableRef::Kind::kNone:
      break;
  }
  return Status::Internal("bad table reference");
}

Result<Binder::FromResult> Binder::BindFrom(const SelectStmt& stmt,
                                           const NameSet& above,
                                           const Exchange* exchange) {
  if (stmt.from.kind == TableRef::Kind::kNone) {
    // SELECT without FROM: a single empty row.
    FromResult out;
    std::vector<std::vector<ExprPtr>> rows;
    rows.emplace_back();
    out.op = std::make_unique<exec::ValuesOp>(Schema(), std::move(rows));
    return out;
  }
  // needed[i]: the names the input of join clause i must carry — those
  // above the FROM clause plus the ON conditions and CROSS APPLY
  // arguments of clause i and every later clause. needed[n] is `above`.
  const size_t n = stmt.joins.size();
  std::vector<NameSet> needed(n + 1, above);
  for (size_t i = n; i-- > 0;) {
    needed[i] = needed[i + 1];
    const JoinClause& jc = stmt.joins[i];
    if (jc.condition != nullptr) needed[i].Add(*jc.condition);
    for (const AstExprPtr& a : jc.ref.args) needed[i].Add(*a);
  }
  HTG_ASSIGN_OR_RETURN(FromResult left,
                       BindTableRef(stmt.from, needed[0], exchange));

  for (size_t i = 0; i < n; ++i) {
    const JoinClause& jc = stmt.joins[i];
    const NameSet& after = needed[i + 1];
    if (jc.cross_apply) {
      if (jc.ref.kind != TableRef::Kind::kTvf) {
        return Status::BindError("CROSS APPLY expects a table function");
      }
      const udf::TableFunction* fn =
          db_->functions()->FindTableFunction(jc.ref.name);
      if (fn == nullptr) {
        return Status::BindError("unknown table function: " + jc.ref.name);
      }
      BindContext ctx;
      ctx.scope = &left.scope;
      ctx.db = db_;
      HTG_ASSIGN_OR_RETURN(std::vector<ExprPtr> args,
                           BindExprs(jc.ref.args, ctx));
      std::vector<Value> const_args(args.size(), Value::Null());
      HTG_ASSIGN_OR_RETURN(Schema fn_schema, fn->BindSchema(const_args));
      const std::string alias =
          jc.ref.alias.empty() ? jc.ref.name : jc.ref.alias;
      // The apply carries only the outer columns used above it.
      std::vector<int> outer = left.scope.Kept(after);
      left.scope = left.scope.Project(outer);
      left.scope.Append(alias, fn_schema);
      if (left.base_scan != nullptr) {
        std::vector<int> origin;
        for (int o : outer) origin.push_back(left.scan_origin[o]);
        origin.resize(left.scope.cols.size(), -1);
        left.scan_origin = std::move(origin);
      }
      left.op = std::make_unique<exec::CrossApplyOp>(
          std::move(left.op), fn, std::move(args), std::move(fn_schema),
          std::move(outer));
      continue;
    }

    // Regular inner join: the two-sided input no longer reads one base
    // table.
    left.base_scan = nullptr;
    left.scan_origin.clear();
    HTG_ASSIGN_OR_RETURN(FromResult right,
                         BindTableRef(jc.ref, needed[i], nullptr));

    Scope concat = left.scope;
    for (const ScopeColumn& c : right.scope.cols) concat.cols.push_back(c);

    std::vector<const AstExpr*> conjuncts;
    if (jc.condition != nullptr) {
      SplitConjuncts(jc.condition.get(), &conjuncts);
    }
    std::vector<ExprPtr> left_keys;
    std::vector<ExprPtr> right_keys;
    std::vector<const AstExpr*> residual_asts;
    BindContext lctx;
    lctx.scope = &left.scope;
    lctx.db = db_;
    BindContext rctx;
    rctx.scope = &right.scope;
    rctx.db = db_;
    for (const AstExpr* c : conjuncts) {
      bool handled = false;
      if (c->kind == AstExpr::Kind::kBinary &&
          c->bin_op == exec::BinaryOp::kEq) {
        // Try (left-side expr, right-side expr) in both orders.
        Result<ExprPtr> ll = BindExpr(*c->left, lctx);
        Result<ExprPtr> rr = BindExpr(*c->right, rctx);
        if (ll.ok() && rr.ok()) {
          left_keys.push_back(std::move(*ll));
          right_keys.push_back(std::move(*rr));
          handled = true;
        } else {
          Result<ExprPtr> lr = BindExpr(*c->left, rctx);
          Result<ExprPtr> rl = BindExpr(*c->right, lctx);
          if (lr.ok() && rl.ok()) {
            left_keys.push_back(std::move(*rl));
            right_keys.push_back(std::move(*lr));
            handled = true;
          }
        }
      }
      if (!handled) residual_asts.push_back(c);
    }

    // The join emits the columns used above it plus those of its residual
    // predicates, which evaluate over its output row (a nested-loop
    // predicate, or a filter over an equi-join). Keys evaluate against
    // the join's inputs.
    const bool equi = !left_keys.empty();
    NameSet emitted = after;
    for (const AstExpr* c : residual_asts) emitted.Add(*c);
    const std::vector<int> columns = concat.Kept(emitted);
    Scope joined = concat.Project(columns);
    BindContext pctx;
    pctx.scope = &joined;
    pctx.db = db_;
    std::vector<ExprPtr> residual;
    for (const AstExpr* c : residual_asts) {
      HTG_ASSIGN_OR_RETURN(ExprPtr pred, BindExpr(*c, pctx));
      residual.push_back(std::move(pred));
    }

    if (jc.left_outer) {
      // LEFT OUTER JOIN: hash-based only, pure equi conditions (residual
      // predicates would need ON-clause semantics we do not implement).
      if (!equi || !residual.empty()) {
        return Status::BindError(
            "LEFT JOIN supports only equi-join ON conditions");
      }
      left.op = std::make_unique<exec::HashJoinOp>(
          std::move(left.op), std::move(right.op), std::move(left_keys),
          std::move(right_keys), columns, /*left_outer=*/true);
      left.scope = std::move(joined);
      continue;
    }
    if (!equi) {
      ExprPtr pred = AndTogether(std::move(residual));
      left.op = std::make_unique<exec::NestedLoopJoinOp>(
          std::move(left.op), std::move(right.op), std::move(pred), columns);
    } else {
      // Merge join when both sides stream in join-key order off their
      // clustered indexes. Key column refs index the scans' projected
      // columns; the clustered key names schema columns.
      bool merge_ok = false;
      auto* lscan = dynamic_cast<exec::TableScanOp*>(left.op.get());
      auto* rscan = dynamic_cast<exec::TableScanOp*>(right.op.get());
      if (lscan != nullptr && rscan != nullptr) {
        const std::vector<int>& lkey = lscan->table()->clustered_key;
        const std::vector<int>& rkey = rscan->table()->clustered_key;
        if (lkey.size() >= left_keys.size() &&
            rkey.size() >= right_keys.size() &&
            left_keys.size() == right_keys.size()) {
          merge_ok = true;
          for (size_t k = 0; k < left_keys.size() && merge_ok; ++k) {
            auto* lc = dynamic_cast<exec::ColumnRefExpr*>(left_keys[k].get());
            auto* rc = dynamic_cast<exec::ColumnRefExpr*>(right_keys[k].get());
            merge_ok = lc != nullptr && rc != nullptr &&
                       lscan->columns()[lc->index()] == lkey[k] &&
                       rscan->columns()[rc->index()] == rkey[k];
          }
        }
      }
      // Right-side key column indexes are relative to the right input; the
      // join operators evaluate right keys against right rows, so no
      // offsetting is needed.
      if (merge_ok) {
        left.op = std::make_unique<exec::MergeJoinOp>(
            std::move(left.op), std::move(right.op), std::move(left_keys),
            std::move(right_keys), columns);
      } else {
        left.op = std::make_unique<exec::HashJoinOp>(
            std::move(left.op), std::move(right.op), std::move(left_keys),
            std::move(right_keys), columns);
      }
      if (!residual.empty()) {
        left.op = std::make_unique<exec::FilterOp>(
            std::move(left.op), AndTogether(std::move(residual)));
      }
    }
    left.scope = std::move(joined);
  }
  return left;
}

// Whether a SELECT gets an exchange, decided from the AST and the catalog
// before its FROM clause binds. The plan parallelizes when it reads one
// heap of at least parallel_threshold rows, extended by CROSS APPLY only,
// and either aggregates with mergeable aggregates only or, without
// aggregates, applies at least one table function (per-row work heavy
// enough to be worth the exchange). Returns null for a serial plan.
std::optional<Binder::Exchange> Binder::PlanExchange(
    const SelectStmt& stmt, const std::vector<const AstExpr*>& agg_calls) {
  const DatabaseOptions& options = db_->options();
  if (options.max_dop <= 1 || stmt.from.kind != TableRef::Kind::kTable) {
    return std::nullopt;
  }
  for (const JoinClause& jc : stmt.joins) {
    if (!jc.cross_apply) return std::nullopt;
  }
  if (!agg_calls.empty() || !stmt.group_by.empty()) {
    for (const AstExpr* call : agg_calls) {
      if (!db_->functions()->FindAggregate(call->call_name)->SupportsMerge()) {
        return std::nullopt;
      }
    }
  } else if (stmt.joins.empty()) {
    return std::nullopt;
  }
  Result<catalog::TableDef*> table = db_->GetTable(stmt.from.name);
  if (!table.ok()) return std::nullopt;
  auto* heap = dynamic_cast<storage::HeapTable*>((*table)->table.get());
  if (heap == nullptr || heap->num_rows() < options.parallel_threshold) {
    return std::nullopt;
  }
  // Morsel size and the DOP clamped to the morsel count, so EXPLAIN
  // shows the degree the exchange runs at.
  Exchange exchange;
  exchange.heap = *table;
  const size_t npages = heap->num_pages();
  exchange.morsel_pages = exec::ChooseMorselPages(npages, options.max_dop);
  const size_t nmorsels =
      (npages + exchange.morsel_pages - 1) / exchange.morsel_pages;
  exchange.dop = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(options.max_dop), std::max<size_t>(1, nmorsels)));
  return exchange;
}

Result<OperatorPtr> Binder::BindSelect(const SelectStmt& stmt) {
  // Required columns: every name the clauses over the FROM clause use.
  NameSet above;
  for (const SelectItem& item : stmt.items) {
    if (item.star) {
      above.all = true;
    } else {
      above.Add(*item.expr);
    }
  }
  for (const AstExpr* e : {stmt.where.get(), stmt.having.get()}) {
    if (e != nullptr) above.Add(*e);
  }
  for (const AstExprPtr& g : stmt.group_by) above.Add(*g);
  for (const OrderItem& o : stmt.order_by) above.Add(*o.expr);

  // Collect aggregates and window calls from the output clauses.
  std::vector<const AstExpr*> agg_calls;
  std::vector<const AstExpr*> window_calls;
  for (const SelectItem& item : stmt.items) {
    if (item.expr) {
      CollectCalls(*db_->functions(), *item.expr, &agg_calls, &window_calls);
    }
  }
  if (stmt.having) {
    CollectCalls(*db_->functions(), *stmt.having, &agg_calls, &window_calls);
  }
  for (const OrderItem& o : stmt.order_by) {
    CollectCalls(*db_->functions(), *o.expr, &agg_calls, &window_calls);
  }

  const std::optional<Exchange> exchange = PlanExchange(stmt, agg_calls);
  HTG_ASSIGN_OR_RETURN(
      FromResult from,
      BindFrom(stmt, above, exchange.has_value() ? &*exchange : nullptr));
  Scope scope = std::move(from.scope);
  OperatorPtr plan = std::move(from.op);

  BindContext pre_ctx;
  pre_ctx.scope = &scope;
  pre_ctx.db = db_;

  // WHERE, and its sargable terms as the base table scan's predicate.
  if (stmt.where != nullptr) {
    HTG_ASSIGN_OR_RETURN(ExprPtr where, BindExpr(*stmt.where, pre_ctx));
    if (from.base_scan != nullptr) {
      storage::ScanPredicate scan_predicate;
      ExtractScanTerms(*where, from.scan_origin, &scan_predicate);
      from.base_scan->set_predicate(std::move(scan_predicate));
    }
    plan = std::make_unique<exec::FilterOp>(std::move(plan), std::move(where));
  }

  const bool has_agg = !agg_calls.empty() || !stmt.group_by.empty();
  AggScope agg_scope;

  if (has_agg) {
    // Bind GROUP BY expressions and aggregate arguments over the input.
    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> group_names;
    for (const AstExprPtr& g : stmt.group_by) {
      HTG_ASSIGN_OR_RETURN(ExprPtr e, BindExpr(*g, pre_ctx));
      group_exprs.push_back(std::move(e));
      agg_scope.group_texts.push_back(g->ToText());
      group_names.push_back(g->ToText());
    }
    std::vector<exec::AggSpec> specs;
    for (const AstExpr* call : agg_calls) {
      const udf::AggregateFunction* fn =
          db_->functions()->FindAggregate(call->call_name);
      exec::AggSpec spec;
      spec.fn = fn;
      spec.display = call->ToText();
      spec.distinct = call->distinct_arg;
      if (!call->star_arg) {
        const int n = static_cast<int>(call->args.size());
        if (n < fn->min_args() || n > fn->max_args()) {
          return Status::BindError("wrong argument count for aggregate " +
                                   call->call_name);
        }
        HTG_ASSIGN_OR_RETURN(spec.args, BindExprs(call->args, pre_ctx));
        std::vector<DataType> arg_types;
        for (const ExprPtr& a : spec.args) {
          arg_types.push_back(a->result_type());
        }
        HTG_RETURN_IF_ERROR(fn->CheckArgTypes(arg_types));
      }
      agg_scope.agg_texts.push_back(spec.display);
      specs.push_back(std::move(spec));
    }
    agg_scope.schema =
        exec::MakeAggregateSchema(group_exprs, group_names, specs);

    if (exchange.has_value()) {
      plan = std::make_unique<exec::ParallelAggregateOp>(
          std::move(plan), exchange->heap, std::move(group_exprs),
          group_names, std::move(specs), exchange->dop,
          exchange->morsel_pages);
    } else {
      plan = std::make_unique<exec::HashAggregateOp>(
          std::move(plan), std::move(group_exprs), group_names,
          std::move(specs));
    }
  } else if (exchange.has_value()) {
    // The gather preserves heap order, so the result matches the serial
    // plan exactly.
    plan = std::make_unique<exec::ParallelMapOp>(
        std::move(plan), exchange->heap, exchange->dop,
        exchange->morsel_pages);
  }

  BindContext post_ctx;
  post_ctx.db = db_;
  if (has_agg) {
    post_ctx.agg = &agg_scope;
  } else {
    post_ctx.scope = &scope;
  }

  // HAVING.
  if (stmt.having != nullptr) {
    HTG_ASSIGN_OR_RETURN(ExprPtr having, BindExpr(*stmt.having, post_ctx));
    plan = std::make_unique<exec::FilterOp>(std::move(plan), std::move(having));
  }

  // Window functions (ROW_NUMBER only).
  std::map<std::string, int> window_map;
  for (const AstExpr* call : window_calls) {
    if (!EqualsIgnoreCase(call->call_name, "ROW_NUMBER")) {
      return Status::BindError("unsupported window function: " +
                               call->call_name);
    }
    std::vector<exec::SortKey> keys;
    for (size_t i = 0; i < call->over_order.size(); ++i) {
      HTG_ASSIGN_OR_RETURN(ExprPtr e, BindExpr(*call->over_order[i], post_ctx));
      keys.push_back({std::move(e), call->over_desc[i]});
    }
    const int col_index = plan->output_schema().num_columns();
    plan = std::make_unique<exec::RowNumberOp>(std::move(plan),
                                               std::move(keys), call->ToText());
    window_map.emplace(call->ToText(), col_index);
  }
  if (!window_map.empty()) post_ctx.window = &window_map;

  // Projection (select list).
  std::vector<ExprPtr> proj_exprs;
  std::vector<std::string> proj_names;
  std::vector<std::string> item_texts;
  for (const SelectItem& item : stmt.items) {
    if (item.star) {
      if (has_agg) {
        return Status::BindError("'*' cannot be used with GROUP BY");
      }
      for (size_t i = 0; i < scope.cols.size(); ++i) {
        proj_exprs.push_back(std::make_unique<exec::ColumnRefExpr>(
            static_cast<int>(i), scope.cols[i].name, scope.cols[i].type));
        proj_names.push_back(scope.cols[i].name);
        item_texts.push_back(ToUpper(scope.cols[i].name));
      }
      continue;
    }
    HTG_ASSIGN_OR_RETURN(ExprPtr e, BindExpr(*item.expr, post_ctx));
    proj_exprs.push_back(std::move(e));
    std::string name = item.alias;
    if (name.empty()) {
      name = item.expr->kind == AstExpr::Kind::kIdent ? item.expr->ident.back()
                                                      : item.expr->ToText();
    }
    proj_names.push_back(name);
    item_texts.push_back(item.expr->ToText());
  }

  // ORDER BY: resolve to projection outputs; unresolved expressions become
  // hidden projection columns dropped after the sort.
  struct PendingSort {
    int column = -1;
    bool desc = false;
  };
  std::vector<PendingSort> sort_cols;
  const size_t visible = proj_exprs.size();
  for (const OrderItem& o : stmt.order_by) {
    PendingSort ps;
    ps.desc = o.descending;
    if (o.expr->kind == AstExpr::Kind::kLiteral &&
        o.expr->literal.IsIntegerKind()) {
      const int64_t pos = o.expr->literal.AsInt64();
      if (pos < 1 || pos > static_cast<int64_t>(visible)) {
        return Status::BindError("ORDER BY position out of range");
      }
      ps.column = static_cast<int>(pos - 1);
    } else {
      const std::string text = o.expr->ToText();
      for (size_t i = 0; i < visible && ps.column < 0; ++i) {
        if (item_texts[i] == text ||
            EqualsIgnoreCase(proj_names[i], text) ||
            (o.expr->kind == AstExpr::Kind::kIdent &&
             EqualsIgnoreCase(proj_names[i], o.expr->ident.back()))) {
          ps.column = static_cast<int>(i);
        }
      }
      if (ps.column < 0) {
        // Hidden sort column.
        HTG_ASSIGN_OR_RETURN(ExprPtr e, BindExpr(*o.expr, post_ctx));
        ps.column = static_cast<int>(proj_exprs.size());
        proj_exprs.push_back(std::move(e));
        proj_names.push_back("__sort" + std::to_string(ps.column));
      }
    }
    sort_cols.push_back(ps);
  }

  const bool has_hidden_sort = proj_exprs.size() > visible;
  if (stmt.distinct && has_hidden_sort) {
    return Status::BindError(
        "ORDER BY items must appear in the select list if SELECT DISTINCT");
  }
  plan = std::make_unique<exec::ProjectOp>(std::move(plan),
                                           std::move(proj_exprs), proj_names);
  if (stmt.distinct) {
    // SELECT DISTINCT is a GROUP BY over every select-list column with no
    // aggregates: the hash aggregate's key equality, memory accounting
    // and spilling.
    const Schema& cols = plan->output_schema();
    std::vector<ExprPtr> keys;
    std::vector<std::string> names;
    for (int i = 0; i < cols.num_columns(); ++i) {
      const Column& col = cols.column(i);
      keys.push_back(
          std::make_unique<exec::ColumnRefExpr>(i, col.name, col.type));
      names.push_back(col.name);
    }
    plan = std::make_unique<exec::HashAggregateOp>(
        std::move(plan), std::move(keys), std::move(names),
        std::vector<exec::AggSpec>{});
  }

  if (!sort_cols.empty()) {
    std::vector<exec::SortKey> keys;
    for (const PendingSort& ps : sort_cols) {
      const Column& col = plan->output_schema().column(ps.column);
      keys.push_back({std::make_unique<exec::ColumnRefExpr>(
                          ps.column, col.name, col.type),
                      ps.desc});
    }
    plan = std::make_unique<exec::SortOp>(std::move(plan), std::move(keys));
    if (plan->output_schema().num_columns() >
        static_cast<int>(visible)) {
      // Drop hidden sort columns.
      std::vector<ExprPtr> keep;
      std::vector<std::string> keep_names;
      for (size_t i = 0; i < visible; ++i) {
        const Column& col = plan->output_schema().column(static_cast<int>(i));
        keep.push_back(std::make_unique<exec::ColumnRefExpr>(
            static_cast<int>(i), col.name, col.type));
        keep_names.push_back(col.name);
      }
      plan = std::make_unique<exec::ProjectOp>(std::move(plan),
                                               std::move(keep), keep_names);
    }
  }

  if (stmt.top >= 0) {
    plan = std::make_unique<exec::TopOp>(std::move(plan), stmt.top);
  }
  return plan;
}

}  // namespace htg::sql
