#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "common/result.h"
#include "exec/operator.h"
#include "sql/ast.h"

namespace htg::sql {

// Binds a parsed SELECT against the catalog and produces a physical
// operator tree. Planning is rule-based, modeled on the behaviours the
// paper observes in SQL Server:
//
//  * every scan, join and CROSS APPLY carries only the columns the plan
//    above it names (required-columns pruning, by column name);
//  * predicates apply below aggregation;
//  * equi-joins over clustered tables whose clustered keys match the join
//    keys become merge joins (Fig. 10), other equi-joins hash joins,
//    anything else nested loops;
//  * GROUP BY plans over a large heap go parallel: partitioned scans feed
//    per-worker partial aggregates that merge in a gather step (Fig. 9),
//    provided every aggregate supports Merge.
class Binder {
 public:
  explicit Binder(Database* db) : db_(db) {}

  Result<exec::OperatorPtr> BindSelect(const SelectStmt& stmt);

  // Binds a standalone scalar expression (INSERT ... VALUES): literals and
  // functions only, no column references.
  Result<exec::ExprPtr> BindValueExpr(const AstExpr& ast);

 private:
  struct Scope;
  struct AggScope;
  struct BindContext;
  struct FromResult;
  struct NameSet;

  // The exchange of a parallel plan: the heap it cuts into morsels, its
  // degree and its morsel size.
  struct Exchange {
    catalog::TableDef* heap = nullptr;
    int dop = 1;
    size_t morsel_pages = 1;
  };
  std::optional<Exchange> PlanExchange(
      const SelectStmt& stmt, const std::vector<const AstExpr*>& agg_calls);

  // `above` names the columns the clauses over the FROM clause use. A
  // non-null `exchange` puts Distribute Streams over the base table scan.
  Result<FromResult> BindFrom(const SelectStmt& stmt, const NameSet& above,
                              const Exchange* exchange);
  // A base table is scanned for the columns `needed` names only.
  Result<FromResult> BindTableRef(const TableRef& ref, const NameSet& needed,
                                  const Exchange* exchange);
  Result<exec::ExprPtr> BindExpr(const AstExpr& ast, const BindContext& ctx);
  Result<std::vector<exec::ExprPtr>> BindExprs(
      const std::vector<AstExprPtr>& asts, const BindContext& ctx);

  Database* db_;
};

}  // namespace htg::sql

