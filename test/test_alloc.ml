(* Allocation gate for the execution hot path: TPC-H Q1, Q6 and a
   join + group query, on a warmed prepared statement in every tier,
   must allocate at most [bound] minor-heap words per lineitem row.

   Unboxing across modules needs cross-module inlining, which only the
   release profile enables (dev builds pass -opaque). The release
   profile sets AEQ_ALLOC_GATE=1 for this directory (see test/dune);
   without it the test still runs every statement in every tier and
   checks that the tiers agree, and reports the figures without
   enforcing them. *)

module D = Aeq_exec.Driver
module E = Aeq.Engine

let bound = 2.0

let gated = Sys.getenv_opt "AEQ_ALLOC_GATE" = Some "1"

let engine =
  lazy
    (let e = E.create ~n_threads:1 ~cost_model:Aeq_backend.Cost_model.off () in
     E.load_tpch e ~scale_factor:0.01;
     e)

let statements =
  [
    ("q1", Aeq_workload.Queries.tpch_q 1);
    ("q6", Aeq_workload.Queries.tpch_q 6);
    ("q12", Aeq_workload.Queries.tpch_q 12);
  ]

let tiers = [ D.Bytecode; D.Unopt; D.Opt; D.Adaptive ]

let sorted (r : D.result) = List.sort compare (List.map Array.to_list r.D.rows)

(* Fewest words over three executions: a stray major slice or a
   one-off table growth must not decide the figure. *)
let words_per_row e p ~mode =
  let rows = float_of_int (Aeq_storage.Catalog.table (E.catalog e) "lineitem").n_rows in
  let pool = E.pool e in
  let result = D.execute_prepared p ~mode ~pool in
  let words =
    List.init 3 (fun _ ->
        let w0 = Gc.minor_words () in
        ignore (D.execute_prepared p ~mode ~pool);
        Gc.minor_words () -. w0)
  in
  (result, List.fold_left Float.min Float.infinity words /. rows)

let test_statement (name, sql) () =
  let e = Lazy.force engine in
  let p = D.prepare ~cost_model:(E.cost_model e) (E.catalog e) (E.plan e sql) ~n_threads:1 in
  let reference = ref None in
  List.iter
    (fun mode ->
      let result, wpr = words_per_row e p ~mode in
      Printf.printf "%s %-8s %.3f words/row%s\n" name (D.mode_name mode) wpr
        (if gated then "" else " (not gated)");
      (match !reference with
      | None -> reference := Some (sorted result)
      | Some rows ->
        if sorted result <> rows then Alcotest.failf "%s: %s rows differ" name (D.mode_name mode));
      if gated && wpr > bound then
        Alcotest.failf "%s in %s allocates %.2f words per lineitem row (bound %.1f)" name
          (D.mode_name mode) wpr bound)
    tiers;
  match !reference with
  | Some [] -> Alcotest.failf "%s returned no rows" name
  | _ -> ()

let () =
  Alcotest.run "alloc"
    [
      ( "hot path",
        List.map
          (fun ((name, _) as stmt) -> Alcotest.test_case name `Quick (test_statement stmt))
          statements );
    ]
