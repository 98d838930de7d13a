(** Per-execution runtime context: the arena (plus this execution's
    scratch lease), one allocator per worker thread, and registries of
    runtime objects (join tables, aggregation tables, output buffers,
    dictionary-predicate bitmaps). Generated code refers to objects by
    small integer ids; the {!Symbols} resolver dispatches them through
    the domain's {e current} context, so concurrent executions of the
    same compiled plan each see their own tables. *)

type t = {
  arena : Aeq_mem.Arena.t;
  lease : Aeq_mem.Arena.lease option;
  dict : Dict.t;
  n_threads : int;
  allocators : Aeq_mem.Arena.allocator array;
  mutable hts : Hash_table.t array;
  mutable aggs : Agg.t array;
  mutable outs : Output.t array;
  mutable preds : Bitmap.t array;
}

val create :
  ?lease:Aeq_mem.Arena.lease ->
  arena:Aeq_mem.Arena.t ->
  dict:Dict.t ->
  n_threads:int ->
  unit ->
  t
(** With [lease], thread allocators draw scratch chunks from it (the
    per-query path); without, they draw from the arena's base lease
    (long-lived data, single-threaded tools and tests). *)

val register_ht : t -> Hash_table.t -> int

val register_agg : t -> Agg.t -> int

val register_out : t -> Output.t -> int

val register_pred : t -> Bitmap.t -> int

val allocator : t -> tid:int -> Aeq_mem.Arena.allocator

(** {1 Domain-current context}

    Pipeline workers install the executing query's context in
    domain-local storage for the duration of a job; resolver closures
    read it back per call. *)

val set_current : t -> unit

val clear_current : unit -> unit

val current_reader : unit -> unit -> t option
(** A reader of this domain's current context. {!unsafe_global_current}
    is read once, here, so the per-row {!Symbols} helpers that call the
    reader never load it. *)

val unsafe_global_current : bool Atomic.t
(** TEST ONLY. When set, the "current context" degenerates to one
    process-global ref instead of a per-domain slot — the historical
    bug from before per-query contexts, where concurrent queries
    stomped each other's installation and wrote into the wrong query's
    runtime objects. The deterministic simulator flips this to prove
    the harness finds that race from a seed. Nothing in the engine
    sets it; leave it alone. Resolvers built while it is set keep
    reading the global ref after it is cleared. *)
