(** The runtime symbol table: the "exported C++ functions" generated
    code may call (paper Section IV-E). All three execution modes
    dispatch through the same closures, so helper behaviour is
    identical by construction.

    Exposed helpers, in the register-file calling convention of
    {!Aeq_vm.Rt_fn} (operands and result are [int64] register slots):
    - [ht_insert  (ht, tid, key) -> payload_ptr]
    - [ht_lookup  (ht, key) -> entry_ptr | 0]
    - [ht_next    (ht, entry) -> entry_ptr | 0]
    - [agg_get    (agg, tid, k1, k2) -> acc_row_ptr]
    - [out_row    (out, tid) -> row_ptr]
    - [dict_match (pred, code) -> 0|1]
    - [year_of    (days) -> year] (dates are days since 1970-01-01) *)

val resolver : Context.t -> Aeq_vm.Rt_fn.resolver

val year_of_days : int64 -> int64
(** Exposed for the baseline engines so all engines share date
    semantics. *)
