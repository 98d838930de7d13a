module A = Aeq_mem.Arena

(* Civil-date conversion (Howard Hinnant's algorithm), days since
   1970-01-01 -> year. *)
let year_of_day days =
  let z = days + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  if m <= 2 then y + 1 else y

let year_of_days days = Int64.of_int (year_of_day (Int64.to_int days))

module R = Aeq_vm.Rt_fn

(* Compiled artifacts (and their resolved helpers) are cached in the
   plan cache and shared by every concurrent execution of the
   statement, so the helpers must not bake in one execution's tables.
   Each call resolves the domain-current context installed by the
   pipeline worker; [ctx] — the context the code was compiled against —
   is only the fallback for single-threaded callers (tools, tests)
   that invoke compiled code without going through the driver.

   Helpers follow the register-file convention of {!Aeq_vm.Rt_fn}:
   operands are read from the caller's slots into unboxed locals and
   the result is written back, so no [int64] crosses a call. *)
let resolver (ctx : Context.t) : R.resolver =
  let current = Context.current_reader () in
  let cur () = match current () with Some c -> c | None -> ctx in
  let[@inline] int regs off = Int64.to_int (R.arg regs off) in
  let[@inline] ret_int regs dst v = R.ret regs dst (Int64.of_int v) in
  let helper arity fn = Some { R.arity; fn } in
  fun sym ->
    match sym with
    | "ht_insert" ->
      helper 3 (fun regs dst ht tid key _ _ ->
          let c = cur () in
          let t = c.Context.hts.(int regs ht) in
          let allocator = c.Context.allocators.(int regs tid) in
          let key = R.arg regs key in
          ret_int regs dst (Hash_table.insert t ~allocator ~key))
    | "ht_lookup" ->
      helper 2 (fun regs dst ht key _ _ _ ->
          let t = (cur ()).Context.hts.(int regs ht) in
          let key = R.arg regs key in
          ret_int regs dst (Hash_table.lookup t ~key))
    | "ht_next" ->
      helper 2 (fun regs dst ht entry _ _ _ ->
          let t = (cur ()).Context.hts.(int regs ht) in
          ret_int regs dst (Hash_table.next_match t ~entry:(int regs entry)))
    | "agg_get" ->
      helper 4 (fun regs dst agg tid k1 k2 _ ->
          let c = cur () in
          let t = c.Context.aggs.(int regs agg) in
          let tid = int regs tid in
          let allocator = c.Context.allocators.(tid) in
          let k1 = R.arg regs k1 and k2 = R.arg regs k2 in
          ret_int regs dst (Agg.get_group t ~tid ~allocator ~k1 ~k2))
    | "out_row" ->
      helper 2 (fun regs dst out tid _ _ _ ->
          let c = cur () in
          let t = c.Context.outs.(int regs out) in
          let tid = int regs tid in
          let allocator = c.Context.allocators.(tid) in
          ret_int regs dst (Output.row t ~tid ~allocator))
    | "dict_match" ->
      helper 2 (fun regs dst pred code _ _ _ ->
          let bm = (cur ()).Context.preds.(int regs pred) in
          ret_int regs dst (if Bitmap.get bm (int regs code) then 1 else 0))
    | "year_of" ->
      helper 1 (fun regs dst days _ _ _ _ -> ret_int regs dst (year_of_day (int regs days)))
    | _ -> None
