(* Tests for the closure backend and compile drivers: equivalence with
   the bytecode interpreter across modes, cost-model shape, and
   calibration sanity. *)

module A = Aeq_mem.Arena
module CM = Aeq_backend.Cost_model

let no_symbols : Aeq_vm.Rt_fn.resolver = fun _ -> None

let outcome run = match run () with v -> Ok v | exception Trap.Error m -> Error m

let run_all_modes seed =
  let f = Gen_ir.generate ~complexity:15 seed in
  let args =
    [| Int64.of_int (seed * 131); Int64.of_int (seed lxor 777); Int64.of_int (seed - 40) |]
  in
  let with_mem k =
    let mem = A.create () in
    let scratch = A.alloc (A.allocator mem) (8 * Gen_ir.n_mem_words) in
    let full_args = Array.append args [| Int64.of_int scratch |] in
    let out = k mem full_args in
    let words = Array.init Gen_ir.n_mem_words (fun i -> A.get_i64 mem (scratch + (8 * i))) in
    (out, words)
  in
  let ir =
    with_mem (fun mem full ->
        outcome (fun () -> Aeq_vm.Ir_interp.run f mem ~symbols:no_symbols ~args:full))
  in
  let bc =
    with_mem (fun mem full ->
        let prog = Aeq_vm.Translate.translate ~symbols:no_symbols f in
        outcome (fun () -> Aeq_vm.Interp.run prog mem ~args:full ()))
  in
  let unopt =
    with_mem (fun mem full ->
        let c =
          Aeq_backend.Compiler.compile ~cost_model:CM.off ~symbols:no_symbols ~mem
            ~mode:CM.Unopt f
        in
        outcome (fun () -> Aeq_backend.Closure_compile.run c.Aeq_backend.Compiler.exec ~args:full ()))
  in
  let opt =
    with_mem (fun mem full ->
        let c =
          Aeq_backend.Compiler.compile ~cost_model:CM.off ~symbols:no_symbols ~mem
            ~mode:CM.Opt f
        in
        outcome (fun () -> Aeq_backend.Closure_compile.run c.Aeq_backend.Compiler.exec ~args:full ()))
  in
  (ir, bc, unopt, opt)

let modes_agree seed =
  let (ir_o, ir_m), (bc_o, bc_m), (u_o, u_m), (o_o, o_m) = run_all_modes seed in
  ir_o = bc_o && bc_o = u_o && u_o = o_o
  && match ir_o with Ok _ -> ir_m = bc_m && bc_m = u_m && u_m = o_m | Error _ -> true

let prop_all_modes_agree =
  QCheck.Test.make ~name:"bytecode = unopt = opt = IR on random programs" ~count:150
    QCheck.small_nat modes_agree

(* --- 64-bit arithmetic at its boundaries -------------------------- *)

(* One function per operation, [f(a, b) = a op b]; checked operations
   trap on overflow, division traps on a zero divisor. *)
type arith = Chk of Instr.ovf_op | Plain of Instr.binop

let arith_name = function
  | Chk Instr.OAdd -> "add_chk"
  | Chk Instr.OSub -> "sub_chk"
  | Chk Instr.OMul -> "mul_chk"
  | Plain Instr.Div -> "div"
  | Plain Instr.Rem -> "rem"
  | Plain _ -> "binop"

let arith_ops = [ Chk Instr.OAdd; Chk Instr.OSub; Chk Instr.OMul; Plain Instr.Div; Plain Instr.Rem ]

let build_arith op ty x y =
  let b = Builder.create ~name:(arith_name op) ~params:[ ty; ty ] in
  let x = x b and y = y b in
  let r =
    match op with Chk o -> Builder.checked b o ty x y | Plain o -> Builder.binop b o ty x y
  in
  Builder.ret b r;
  let f = Builder.finish b in
  Layout.normalize f;
  f

(* Independent overflow oracle (the CERT INT32-C pre-checks). *)
let overflows op (a : int64) (b : int64) =
  let open Int64 in
  match op with
  | Chk Instr.OAdd -> if b > 0L then a > sub max_int b else a < sub min_int b
  | Chk Instr.OSub -> if b < 0L then a > add max_int b else a < add min_int b
  | Chk Instr.OMul ->
    if a > 0L then if b > 0L then a > div max_int b else b < div min_int a
    else if b > 0L then a < div min_int b
    else a <> 0L && b < div max_int a
  | Plain _ -> false

let expected op a b =
  if overflows op a b then Error "integer overflow"
  else
    match op with
    | Chk Instr.OAdd -> Ok (Int64.add a b)
    | Chk Instr.OSub -> Ok (Int64.sub a b)
    | Chk Instr.OMul -> Ok (Int64.mul a b)
    | Plain (Instr.Div | Instr.Rem) when b = 0L -> Error "division by zero"
    | Plain Instr.Div -> Ok (Int64.div a b)
    | Plain _ -> Ok (Int64.rem a b)

(* Every tier on one operation: the IR evaluator, the interpreter over
   fused (AddChk_i64 ...) and unfused (OvfAdd_i64 + branch) bytecode,
   closure compilation of both, the Opt pipeline, and constant folding
   of the same operation on literal operands. *)
let arith_tiers op a b =
  let f = build_arith op Types.I64 (fun b -> Builder.param b 0) (fun b -> Builder.param b 1) in
  let args = [| a; b |] in
  let mem = A.create () in
  let bc fuse = Aeq_vm.Translate.translate ~fuse ~symbols:no_symbols f in
  let closures fuse =
    let c = Aeq_backend.Compiler.compile_unopt_of_bytecode ~cost_model:CM.off ~mem ~n_instrs:1 (bc fuse) in
    outcome (fun () -> Aeq_backend.Closure_compile.run c.Aeq_backend.Compiler.exec ~args ())
  in
  let compiled mode =
    let c = Aeq_backend.Compiler.compile ~cost_model:CM.off ~symbols:no_symbols ~mem ~mode f in
    outcome (fun () -> Aeq_backend.Closure_compile.run c.Aeq_backend.Compiler.exec ~args ())
  in
  let folded =
    let g = build_arith op Types.I64 (fun _ -> Instr.Imm a) (fun _ -> Instr.Imm b) in
    ignore (Aeq_passes.Const_fold.run g);
    outcome (fun () -> Aeq_vm.Ir_interp.run g mem ~symbols:no_symbols ~args:[||])
  in
  [
    ("ir", outcome (fun () -> Aeq_vm.Ir_interp.run f mem ~symbols:no_symbols ~args));
    ("bytecode", outcome (fun () -> Aeq_vm.Interp.run (bc true) mem ~args ()));
    ("bytecode unfused", outcome (fun () -> Aeq_vm.Interp.run (bc false) mem ~args ()));
    ("closures", closures true);
    ("closures unfused", closures false);
    ("unopt", compiled CM.Unopt);
    ("opt", compiled CM.Opt);
    ("const fold", folded);
  ]

let boundary_values =
  [
    Int64.min_int; Int64.max_int; -1L; 0L; 1L; 0x80000000L; -0x80000000L; 0x7FFFFFFFL;
    0x100000000L; -0x100000000L; Int64.succ Int64.min_int; Int64.pred Int64.max_int;
  ]

let arith_operand =
  QCheck.Gen.(frequency [ (3, oneofl boundary_values); (1, ui64); (1, map Int64.of_int small_signed_int) ])

let arith_mismatches (a, b) =
  let show = function Ok v -> Int64.to_string v | Error m -> m in
  List.concat_map
    (fun op ->
      let want = expected op a b in
      List.filter_map
        (fun (tier, got) ->
          if got = want then None
          else
            Some
              (Printf.sprintf "%s %Ld %Ld in %s: got %s, want %s" (arith_name op) a b tier
                 (show got) (show want)))
        (arith_tiers op a b))
    arith_ops

let prop_arith_boundaries =
  QCheck.Test.make ~name:"64-bit checked ops: same value or trap in every tier" ~count:300
    (QCheck.make
       ~print:(fun (a, b) -> Printf.sprintf "(%Ld, %Ld)" a b)
       QCheck.Gen.(pair arith_operand arith_operand))
    (fun pair ->
      match arith_mismatches pair with
      | [] -> true
      | ms -> QCheck.Test.fail_reportf "%s" (String.concat "\n" ms))

let test_arith_boundary_pairs () =
  (* the two bytecode shapes really are the macro-op and the flag op *)
  let ops fuse op =
    let f = build_arith op Types.I64 (fun b -> Builder.param b 0) (fun b -> Builder.param b 1) in
    Array.to_list
      (Array.map
         (fun (i : Aeq_vm.Bytecode.insn) -> i.Aeq_vm.Bytecode.op)
         (Aeq_vm.Translate.translate ~fuse ~symbols:no_symbols f).Aeq_vm.Bytecode.code)
  in
  List.iter
    (fun (op, fused, flag) ->
      Alcotest.(check bool) "fused macro-op" true (List.mem fused (ops true op));
      Alcotest.(check bool) "unfused flag op" true (List.mem flag (ops false op)))
    Aeq_vm.Opcode.
      [
        (Chk Instr.OAdd, AddChk_i64, OvfAdd_i64);
        (Chk Instr.OSub, SubChk_i64, OvfSub_i64);
        (Chk Instr.OMul, MulChk_i64, OvfMul_i64);
      ];
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          match arith_mismatches (a, b) with
          | [] -> ()
          | m :: _ -> Alcotest.fail m)
        boundary_values)
    boundary_values

let test_unopt_runs_simple () =
  let b = Builder.create ~name:"s" ~params:[ Types.I64 ] in
  let r = Builder.binop b Instr.Mul Types.I64 (Builder.param b 0) (Instr.Imm 7L) in
  Builder.ret b r;
  let f = Builder.finish b in
  Layout.normalize f;
  let mem = A.create () in
  let c =
    Aeq_backend.Compiler.compile ~cost_model:CM.off ~symbols:no_symbols ~mem ~mode:CM.Unopt f
  in
  Alcotest.(check int64) "6*7" 42L
    (Aeq_backend.Closure_compile.run c.Aeq_backend.Compiler.exec ~args:[| 6L |] ())

let test_opt_shrinks_ir () =
  (* a function with foldable constants and CSE opportunities *)
  let b = Builder.create ~name:"shrink" ~params:[ Types.I64 ] in
  let p = Builder.param b 0 in
  let a1 = Builder.binop b Instr.Add Types.I64 p (Instr.Imm 1L) in
  let a2 = Builder.binop b Instr.Add Types.I64 p (Instr.Imm 1L) in
  let c1 = Builder.binop b Instr.Mul Types.I64 (Instr.Imm 6L) (Instr.Imm 7L) in
  let r1 = Builder.binop b Instr.Add Types.I64 a1 a2 in
  let r2 = Builder.binop b Instr.Add Types.I64 r1 c1 in
  Builder.ret b r2;
  let f = Builder.finish b in
  Layout.normalize f;
  let mem = A.create () in
  let c =
    Aeq_backend.Compiler.compile ~cost_model:CM.off ~symbols:no_symbols ~mem ~mode:CM.Opt f
  in
  Alcotest.(check bool) "fewer instructions after O2" true
    (c.Aeq_backend.Compiler.n_instrs_after < Func.n_instrs f);
  Alcotest.(check int64) "still correct" (Int64.of_int ((10 + 1) * 2 + 42))
    (Aeq_backend.Closure_compile.run c.Aeq_backend.Compiler.exec ~args:[| 10L |] ())

let test_cost_model_shape () =
  let m = CM.default in
  (* bytecode < unopt < opt at every size *)
  List.iter
    (fun n ->
      let bc = CM.compile_time m CM.Bytecode n in
      let u = CM.compile_time m CM.Unopt n in
      let o = CM.compile_time m CM.Opt n in
      Alcotest.(check bool) "bc < unopt" true (bc < u);
      Alcotest.(check bool) "unopt < opt" true (u < o))
    [ 100; 1_000; 10_000; 100_000 ];
  (* the quadratic term dominates for mega-functions: opt(10k) > 4x opt(2.5k) x 4 *)
  let o1 = CM.compile_time m CM.Opt 10_000 and o2 = CM.compile_time m CM.Opt 100_000 in
  Alcotest.(check bool) "superlinear growth" true (o2 > 10.0 *. o1);
  (* unopt is near-linear: 10x size is < 15x time *)
  let u1 = CM.compile_time m CM.Unopt 10_000 and u2 = CM.compile_time m CM.Unopt 100_000 in
  Alcotest.(check bool) "unopt near-linear" true (u2 < 15.0 *. u1)

let test_simulated_latency_enforced () =
  let b = Builder.create ~name:"lat" ~params:[ Types.I64 ] in
  Builder.ret b (Builder.param b 0);
  let f = Builder.finish b in
  Layout.normalize f;
  let mem = A.create () in
  (* tiny function: modelled opt time still has its base cost *)
  let c =
    Aeq_backend.Compiler.compile ~cost_model:CM.default ~symbols:no_symbols ~mem
      ~mode:CM.Opt f
  in
  Alcotest.(check bool) "at least base latency" true
    (c.Aeq_backend.Compiler.compile_seconds >= CM.default.CM.opt_base *. 0.9)

let test_calibration_sane () =
  let cal = Aeq_backend.Calibration.measure () in
  Alcotest.(check bool) "unopt faster than bytecode" true
    (cal.Aeq_backend.Calibration.speedup_unopt > 1.0);
  Alcotest.(check bool) "opt at least unopt (roughly)" true
    (cal.Aeq_backend.Calibration.speedup_opt > 1.0)

let () =
  Alcotest.run "backend"
    [
      ( "closure",
        [
          Alcotest.test_case "unopt runs" `Quick test_unopt_runs_simple;
          Alcotest.test_case "opt shrinks IR" `Quick test_opt_shrinks_ir;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "shape" `Quick test_cost_model_shape;
          Alcotest.test_case "simulated latency" `Quick test_simulated_latency_enforced;
          Alcotest.test_case "calibration" `Quick test_calibration_sane;
        ] );
      ( "arithmetic",
        [
          Alcotest.test_case "boundary pairs" `Quick test_arith_boundary_pairs;
          QCheck_alcotest.to_alcotest prop_arith_boundaries;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_all_modes_agree ]);
    ]
