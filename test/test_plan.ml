(* Unit tests for the planner: join ordering, filter placement,
   payload computation, aggregate rewriting, scalar evaluation. *)

module P = Aeq_plan.Physical
module Sc = Aeq_plan.Scalar
module Dtype = Aeq_storage.Dtype

let catalog =
  lazy
    (let c = Aeq_storage.Catalog.create () in
     Aeq_workload.Tpch.load ~scale_factor:0.001 c;
     c)

let plan sql = Aeq_plan.Planner.plan_sql (Lazy.force catalog) sql

let table_of_tref p i = (fst p.P.pl_trefs.(i)).Aeq_storage.Table.name

let test_single_table_single_pipeline () =
  let p = plan "select l_orderkey from lineitem where l_quantity > 10" in
  Alcotest.(check int) "one pipeline" 1 (List.length p.P.pl_pipelines);
  let pipe = List.hd p.P.pl_pipelines in
  Alcotest.(check int) "one scan filter" 1 (List.length pipe.P.p_scan_filters);
  Alcotest.(check int) "no probes" 0 (List.length pipe.P.p_probes)

let test_join_builds_smaller_side () =
  let p =
    plan "select l_orderkey from lineitem join orders on l_orderkey = o_orderkey"
  in
  (* lineitem is larger: orders must be the build side, lineitem the driver *)
  Alcotest.(check int) "two pipelines" 2 (List.length p.P.pl_pipelines);
  Alcotest.(check int) "one hash table" 1 (Array.length p.P.pl_hts);
  Alcotest.(check string) "build side is orders" "orders"
    (table_of_tref p p.P.pl_hts.(0).P.ht_build_tref);
  let driver = List.nth p.P.pl_pipelines 1 in
  (match driver.P.p_source with
  | P.Src_scan { tref } -> Alcotest.(check string) "driver is lineitem" "lineitem" (table_of_tref p tref)
  | _ -> Alcotest.fail "driver must scan")

let test_local_filters_go_to_build_pipeline () =
  let p =
    plan
      "select l_orderkey from lineitem join orders on l_orderkey = o_orderkey \
       where o_orderdate < date '1995-01-01' and l_quantity > 5"
  in
  let build = List.nth p.P.pl_pipelines 0 and driver = List.nth p.P.pl_pipelines 1 in
  Alcotest.(check int) "order filter at build" 1 (List.length build.P.p_scan_filters);
  Alcotest.(check int) "lineitem filter at driver scan" 1 (List.length driver.P.p_scan_filters)

let test_q5_snowflake_shape () =
  let p = plan (Aeq_workload.Queries.tpch_q 5) in
  (* 6 tables: 5 build pipelines + driver + aggregate scan *)
  Alcotest.(check int) "7 pipelines" 7 (List.length p.P.pl_pipelines);
  Alcotest.(check int) "5 hash tables" 5 (Array.length p.P.pl_hts);
  (* every build keys on the built table's primary key (column 0): the
     key-first heuristic must leave c_nationkey = s_nationkey as a
     residual filter rather than building customers by nation *)
  Array.iter
    (fun spec ->
      match spec.P.ht_key with
      | Sc.Col { col; _ } -> Alcotest.(check int) "pk build" 0 col
      | _ -> Alcotest.fail "expected simple column key")
    p.P.pl_hts;
  (* the residual c_nationkey = s_nationkey filter lives on a probe *)
  let driver = List.nth p.P.pl_pipelines 5 in
  let probe_filters =
    List.concat_map (fun pr -> pr.P.pr_filters) driver.P.p_probes
  in
  Alcotest.(check bool) "residual join filter attached" true (probe_filters <> [])

let test_payload_contains_downstream_columns () =
  let p =
    plan
      "select n_name, sum(l_quantity) from lineitem \
       join supplier on l_suppkey = s_suppkey \
       join nation on s_nationkey = n_nationkey group by n_name"
  in
  (* supplier's payload must carry s_nationkey (needed to probe nation) *)
  let supp_ht =
    Array.to_list p.P.pl_hts
    |> List.find (fun s -> String.equal (table_of_tref p s.P.ht_build_tref) "supplier")
  in
  let supp_tbl = Aeq_storage.Catalog.table (Lazy.force catalog) "supplier" in
  let nat_col = Aeq_storage.Table.column_index supp_tbl "s_nationkey" in
  Alcotest.(check bool) "s_nationkey in payload" true
    (List.mem_assoc nat_col supp_ht.P.ht_payload);
  (* nation's payload must carry n_name (projection) *)
  let nat_ht =
    Array.to_list p.P.pl_hts
    |> List.find (fun s -> String.equal (table_of_tref p s.P.ht_build_tref) "nation")
  in
  let nat_tbl = Aeq_storage.Catalog.table (Lazy.force catalog) "nation" in
  let name_col = Aeq_storage.Table.column_index nat_tbl "n_name" in
  Alcotest.(check bool) "n_name in payload" true (List.mem_assoc name_col nat_ht.P.ht_payload)

let test_avg_becomes_sum_count () =
  let p = plan "select avg(l_quantity) from lineitem" in
  match p.P.pl_agg with
  | Some cfg ->
    let kinds = List.map fst cfg.P.agg_accs in
    Alcotest.(check bool) "sum present" true (List.mem Aeq_rt.Agg.Sum kinds);
    Alcotest.(check bool) "count present" true (List.mem Aeq_rt.Agg.Count kinds)
  | None -> Alcotest.fail "aggregation expected"

let test_shared_aggregates_dedup () =
  (* avg and sum of the same argument share one Sum accumulator, and
     the row count accumulator is shared with count *)
  let p = plan "select sum(l_quantity), avg(l_quantity), count(*) from lineitem" in
  match p.P.pl_agg with
  | Some cfg -> Alcotest.(check int) "two accumulators" 2 (List.length cfg.P.agg_accs)
  | None -> Alcotest.fail "aggregation expected"

let test_decimal_promotion () =
  (* int literal compared with a decimal column must be rescaled *)
  let p = plan "select count(*) from lineitem where l_quantity < 24" in
  let pipe = List.hd p.P.pl_pipelines in
  match pipe.P.p_scan_filters with
  | [ Sc.Bin (Aeq_sql.Ast.Lt, _, Sc.Const (n, Dtype.Decimal), _) ] ->
    Alcotest.(check int64) "24 scaled to 2400" 2400L n
  | _ -> Alcotest.fail "expected rescaled literal"

let test_having_on_agg_scan () =
  let p = plan (Aeq_workload.Queries.tpch_q 11) in
  let agg_scan = List.nth p.P.pl_pipelines (List.length p.P.pl_pipelines - 1) in
  (match agg_scan.P.p_source with
  | P.Src_agg_scan _ -> ()
  | _ -> Alcotest.fail "last pipeline must scan the aggregate");
  Alcotest.(check int) "having became its scan filter" 1
    (List.length agg_scan.P.p_scan_filters)

let test_scalar_eval_decimal_rules () =
  let eval s =
    Aeq_plan.Scalar_eval.eval
      ~col:(fun ~tref:_ ~col:_ -> 0L)
      ~acol:(fun _ -> 0L)
      ~pred:(fun _ _ -> false)
      s
  in
  (* 1.50 * 2.00 = 3.00 (fixed point) *)
  let m =
    Sc.Bin (Aeq_sql.Ast.Mul, Sc.Const (150L, Dtype.Decimal), Sc.Const (200L, Dtype.Decimal), Dtype.Decimal)
  in
  Alcotest.(check int64) "decimal mul" 300L (eval m);
  (* 3.00 / 2.00 = 1.50 *)
  let d =
    Sc.Bin (Aeq_sql.Ast.Div, Sc.Const (300L, Dtype.Decimal), Sc.Const (200L, Dtype.Decimal), Dtype.Decimal)
  in
  Alcotest.(check int64) "decimal div" 150L (eval d);
  (* decimal / int keeps the scale: 3.00 / 2 = 1.50 *)
  let d2 =
    Sc.Bin (Aeq_sql.Ast.Div, Sc.Const (300L, Dtype.Decimal), Sc.Const (2L, Dtype.Int), Dtype.Decimal)
  in
  Alcotest.(check int64) "decimal/int div" 150L (eval d2)

let test_explain_structure () =
  let text = Aeq_plan.Explain.to_string (plan (Aeq_workload.Queries.tpch_q 3)) in
  let lines = String.split_on_char '\n' text in
  Alcotest.(check bool) "mentions probes" true
    (List.exists (fun l -> String.length l > 7 && String.sub l 2 5 = "probe") lines)

(* ---- cardinality-aware planning ---------------------------------- *)

let driver_pipeline p =
  List.find (fun pipe -> pipe.P.p_probes <> []) p.P.pl_pipelines

let probe_aliases p =
  List.map (fun pr -> snd p.P.pl_trefs.(pr.P.pr_tref)) (driver_pipeline p).P.p_probes

let build_pipeline p alias =
  List.find (fun pipe -> pipe.P.p_name = "build " ^ alias) p.P.pl_pipelines

let index_of x l =
  let rec go i = function [] -> Alcotest.failf "%s not probed" x | y :: r -> if y = x then i else go (i + 1) r in
  go 0 l

let rec mentions_op op = function
  | Sc.Bin (o, a, b, _) -> o = op || mentions_op op a || mentions_op op b
  | Sc.Not e | Sc.Year e | Sc.Dict_match (_, e) -> mentions_op op e
  | Sc.Case (whens, els, _) ->
    mentions_op op els || List.exists (fun (c, v) -> mentions_op op c || mentions_op op v) whens
  | Sc.Col _ | Sc.Acol _ | Sc.Const _ -> false

let test_probe_order_by_selectivity () =
  (* the 1-in-25 nation filters are reached through small tables, so
     they probe before the 1500-row orders table *)
  let q7 = probe_aliases (plan (Aeq_workload.Queries.tpch_q 7)) in
  Alcotest.(check bool) "q7: n1 before orders" true (index_of "n1" q7 < index_of "orders" q7);
  let q21 = probe_aliases (plan (Aeq_workload.Queries.tpch_q 21)) in
  Alcotest.(check bool) "q21: nation before orders" true
    (index_of "nation" q21 < index_of "orders" q21)

let test_q19_implied_filters () =
  let p = plan (Aeq_workload.Queries.tpch_q 19) in
  Alcotest.(check int) "3 distinct dictionary predicates" 3 (Array.length p.P.pl_preds);
  Alcotest.(check bool) "part gets a scan filter" true
    ((build_pipeline p "part").P.p_scan_filters <> []);
  let driver = driver_pipeline p in
  Alcotest.(check bool) "lineitem gets a scan filter" true (driver.P.p_scan_filters <> []);
  Alcotest.(check bool) "residual OR kept" true
    (List.exists (mentions_op Aeq_sql.Ast.Or)
       (List.concat_map (fun pr -> pr.P.pr_filters) driver.P.p_probes))

let test_division_not_lifted () =
  let p =
    plan
      "select count(*) from lineitem join orders on o_orderkey = l_orderkey \
       where (o_orderpriority = '1-URGENT' and l_extendedprice / l_quantity > 1500.00) \
          or (o_orderpriority = '2-HIGH' and l_quantity < 5)"
  in
  (* orders has a comparison in both branches, lineitem only a division
     in the first: one implied filter, on orders *)
  Alcotest.(check int) "orders gets the implied filter" 1
    (List.length (build_pipeline p "orders").P.p_scan_filters);
  let driver = driver_pipeline p in
  Alcotest.(check int) "nothing lifted onto lineitem" 0 (List.length driver.P.p_scan_filters);
  List.iter
    (fun pipe ->
      List.iter
        (fun f -> Alcotest.(check bool) "no division in a scan filter" false (mentions_op Aeq_sql.Ast.Div f))
        pipe.P.p_scan_filters)
    p.P.pl_pipelines;
  Alcotest.(check bool) "the division stays in the residual" true
    (List.exists (mentions_op Aeq_sql.Ast.Div)
       (List.concat_map (fun pr -> pr.P.pr_filters) driver.P.p_probes))

let test_estimate_survives_traps () =
  let orders = Aeq_storage.Catalog.table (Lazy.force catalog) "orders" in
  List.iter
    (fun filter ->
      let p =
        plan ("select count(*) from lineitem join orders on o_orderkey = l_orderkey where " ^ filter)
      in
      Alcotest.(check int) (filter ^ ": estimate falls back to every row")
        orders.Aeq_storage.Table.n_rows p.P.pl_hts.(0).P.ht_expected)
    [ "o_custkey / 0 > 1"; "o_custkey * 9223372036854775807 > 1" ]

let test_estimated_build_rows () =
  let p = plan (Aeq_workload.Queries.tpch_q 21) in
  let nation =
    Array.to_list p.P.pl_hts
    |> List.find (fun s -> String.equal (table_of_tref p s.P.ht_build_tref) "nation")
  in
  (* 25 rows are evaluated exactly: one nation is SAUDI ARABIA *)
  Alcotest.(check int) "exact on a small table" 1 nation.P.ht_expected;
  let text = Aeq_plan.Explain.to_string p in
  Alcotest.(check bool) "explain prints the estimate" true
    (List.exists
       (fun l -> String.length l > 10 && String.ends_with ~suffix:"est. 1 rows" l)
       (String.split_on_char '\n' text))

let () =
  Alcotest.run "plan"
    [
      ( "shapes",
        [
          Alcotest.test_case "single table" `Quick test_single_table_single_pipeline;
          Alcotest.test_case "build smaller side" `Quick test_join_builds_smaller_side;
          Alcotest.test_case "filter placement" `Quick test_local_filters_go_to_build_pipeline;
          Alcotest.test_case "q5 snowflake" `Quick test_q5_snowflake_shape;
          Alcotest.test_case "payload columns" `Quick test_payload_contains_downstream_columns;
        ] );
      ( "cardinality",
        [
          Alcotest.test_case "probe order by selectivity" `Quick test_probe_order_by_selectivity;
          Alcotest.test_case "q19 implied filters" `Quick test_q19_implied_filters;
          Alcotest.test_case "division not lifted" `Quick test_division_not_lifted;
          Alcotest.test_case "estimate survives traps" `Quick test_estimate_survives_traps;
          Alcotest.test_case "estimated build rows" `Quick test_estimated_build_rows;
        ] );
      ( "aggregates",
        [
          Alcotest.test_case "avg = sum/count" `Quick test_avg_becomes_sum_count;
          Alcotest.test_case "accumulator dedup" `Quick test_shared_aggregates_dedup;
          Alcotest.test_case "having placement" `Quick test_having_on_agg_scan;
        ] );
      ( "scalars",
        [
          Alcotest.test_case "decimal promotion" `Quick test_decimal_promotion;
          Alcotest.test_case "decimal arithmetic" `Quick test_scalar_eval_decimal_rules;
        ] );
      ("explain", [ Alcotest.test_case "structure" `Quick test_explain_structure ]);
    ]
