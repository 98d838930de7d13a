(** Semantic analysis and physical planning.

    Binds a parsed query against the catalog (column resolution, type
    checking with fixed-point decimal rules, plan-time evaluation of
    string predicates over the dictionary, one bitmap per distinct
    predicate), then builds the pipeline plan: one build pipeline per
    non-driver table (the driver is the largest table; probes follow a
    greedy left-deep order, key-first, then by the selectivity of each
    branch's filters estimated over at most 64 sampled rows), a driver
    pipeline ending in an aggregate update or output sink, and an
    aggregate-scan pipeline when grouping. Disjunctions also yield the
    trap-free filters they imply per table, applied at that table's
    scan; hash tables are sized from the estimated build rows.

    Group keys are limited to two expressions; only equi-joins are
    supported (no cross products), which covers the adapted TPC-H
    workload. *)

exception Plan_error of string

val plan : Aeq_storage.Catalog.t -> Aeq_sql.Ast.query -> Physical.t

val plan_sql : Aeq_storage.Catalog.t -> string -> Physical.t
(** Parse + plan. *)
