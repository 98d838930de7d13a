(* A result oracle independent of the planner: the sorted, rendered
   rows of every TPC-H, metadata and OR statement at sf 0.01 (default
   seed), captured once and checked in as [golden_results.txt]. Every
   execution tier must reproduce them exactly, whatever plan the
   planner picks — unlike the differential suites, which compare tiers
   and baselines over one shared plan and so cannot see a planner bug.

   Regenerate only when the expected rows themselves must change:
     dune exec test/test_golden.exe -- --write test/golden_results.txt *)

module Driver = Aeq_exec.Driver

let scale_factor = 0.01

(* At sf 0.01 TPC-H Q19 selects nothing, so these add disjunctions
   over two tables with non-empty results: per-table atoms on both
   sides, an atom common to every branch, and a division inside one
   branch. *)
let or_statements =
  [
    ( "or_two_tables",
      {|select p_brand, count(*) as n, sum(l_quantity) as qty
         from lineitem join part on p_partkey = l_partkey
         where (p_brand = 'Brand#12' and p_size <= 20 and l_quantity <= 11
                and l_shipmode in ('AIR', 'REG AIR'))
            or (p_brand = 'Brand#23' and p_size >= 30 and l_quantity >= 40
                and l_shipmode in ('AIR', 'REG AIR'))
         group by p_brand order by p_brand|} );
    ( "or_common_atom",
      {|select l_returnflag, count(*) as n
         from lineitem join orders on o_orderkey = l_orderkey
         where (l_shipmode = 'AIR' and o_orderstatus = 'F')
            or (l_shipmode = 'AIR' and l_quantity < 10)
         group by l_returnflag order by l_returnflag|} );
    ( "or_division",
      {|select count(*) as n from lineitem join orders on o_orderkey = l_orderkey
         where (o_orderpriority = '1-URGENT' and l_extendedprice / l_quantity > 1500.00)
            or (o_orderpriority = '2-HIGH' and l_quantity < 5)|} );
  ]

let statements = Aeq_workload.Queries.tpch @ Aeq_workload.Queries.metadata @ or_statements

let engine =
  lazy
    (let e = Aeq.Engine.create ~n_threads:2 ~cost_model:Aeq_backend.Cost_model.off () in
     Aeq.Engine.load_tpch e ~scale_factor;
     e)

(* rows rendered as text (dictionary codes depend on interning order),
   then sorted *)
let rows e mode sql = List.sort compare (Aeq.Engine.render_rows e (Aeq.Engine.query e ~mode sql))

(* "== name" header lines, each followed by that statement's rows *)
let render results =
  String.concat ""
    (List.map
       (fun (name, rows) -> String.concat "" (List.map (fun r -> r ^ "\n") (("== " ^ name) :: rows)))
       results)

let parse text =
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  let finish acc = function Some (n, rs) -> (n, List.rev rs) :: acc | None -> acc in
  let rec go acc cur = function
    | [] -> List.rev (finish acc cur)
    | l :: rest when String.length l > 3 && String.sub l 0 3 = "== " ->
      go (finish acc cur) (Some (String.sub l 3 (String.length l - 3), [])) rest
    | l :: rest -> (
      match cur with
      | Some (n, rs) -> go acc (Some (n, l :: rs)) rest
      | None -> failwith "golden file: row before the first header")
  in
  go [] None lines

let fixture =
  lazy
    (let path =
       (* next to the binary under [dune runtest]; in the source tree
          under [dune exec] from the repository root *)
       List.find Sys.file_exists
         [
           Filename.concat (Filename.dirname Sys.executable_name) "golden_results.txt";
           "test/golden_results.txt";
         ]
     in
     parse (In_channel.with_open_bin path In_channel.input_all))

let check_mode mode () =
  let e = Lazy.force engine in
  let expected = Lazy.force fixture in
  Alcotest.(check int) "every statement has golden rows" (List.length statements)
    (List.length expected);
  List.iter
    (fun (name, sql) ->
      let want = List.assoc name expected in
      let got = rows e mode sql in
      if got <> want then
        Alcotest.failf "%s (%s): %d rows, golden has %d; first difference: %s" name
          (Driver.mode_name mode) (List.length got) (List.length want)
          (let rec diff = function
             | g :: gs, w :: ws -> if g = w then diff (gs, ws) else Printf.sprintf "got %S, want %S" g w
             | g :: _, [] -> Printf.sprintf "extra %S" g
             | [], w :: _ -> Printf.sprintf "missing %S" w
             | [], [] -> "none"
           in
           diff (got, want)))
    statements

let () =
  match Sys.argv with
  | [| _; "--write"; path |] ->
    let e = Lazy.force engine in
    let text = render (List.map (fun (name, sql) -> (name, rows e Driver.Bytecode sql)) statements) in
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)
  | _ ->
    Alcotest.run "golden"
      [
        ( "tiers",
          List.map
            (fun mode -> Alcotest.test_case (Driver.mode_name mode) `Quick (check_mode mode))
            [ Driver.Bytecode; Driver.Unopt; Driver.Opt; Driver.Adaptive ] );
      ]
