let to_string (plan : Physical.t) =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  Array.iteri
    (fun i (tbl, alias) ->
      add "table t%d = %s (%s, %d rows)\n" i alias tbl.Aeq_storage.Table.name
        tbl.Aeq_storage.Table.n_rows)
    plan.Physical.pl_trefs;
  List.iteri
    (fun i (p : Physical.pipeline) ->
      add "pipeline %d: %s\n" i p.Physical.p_name;
      (match p.Physical.p_source with
      | Physical.Src_scan { tref } -> add "  source: scan t%d\n" tref
      | Physical.Src_agg_scan { agg } -> add "  source: aggregate table %d\n" agg);
      List.iter (fun f -> add "  filter: %s\n" (Scalar.to_string f)) p.Physical.p_scan_filters;
      List.iter
        (fun (pr : Physical.probe) ->
          add "  probe ht%d (t%d) on %s\n" pr.Physical.pr_ht pr.Physical.pr_tref
            (Scalar.to_string pr.Physical.pr_key);
          List.iter
            (fun f -> add "    match filter: %s\n" (Scalar.to_string f))
            pr.Physical.pr_filters)
        p.Physical.p_probes;
      match p.Physical.p_sink with
      | Physical.S_build { ht; key; payload } ->
        add "  sink: build ht%d key=%s payload=%d cols, est. %d rows\n" ht (Scalar.to_string key)
          (List.length payload) plan.Physical.pl_hts.(ht).Physical.ht_expected
      | Physical.S_agg { keys; accs; _ } ->
        add "  sink: aggregate keys=[%s] accs=%d\n"
          (String.concat "; " (List.map Scalar.to_string keys))
          (List.length accs)
      | Physical.S_out { exprs; _ } ->
        add "  sink: output [%s]\n" (String.concat "; " (List.map Scalar.to_string exprs)))
    plan.Physical.pl_pipelines;
  (match plan.Physical.pl_order_by with
  | [] -> ()
  | keys ->
    add "order by: %s\n"
      (String.concat ", "
         (List.map (fun (i, d) -> Printf.sprintf "%d%s" i (if d then " desc" else "")) keys)));
  (match plan.Physical.pl_limit with Some n -> add "limit %d\n" n | None -> ());
  Buffer.contents b
