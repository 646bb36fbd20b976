(** Tests for the MSIL IR, interpreter, activity analysis, differentiability
    diagnostics, derivative synthesis, and optimization passes (§2.2). *)

open S4o_sil
module B = Builder

(* Straight-line: f(x, y) = x*y + sin(x) *)
let build_mul_sin () =
  let b = B.create ~name:"mul_sin" ~n_args:2 in
  let x = B.param b 0 and y = B.param b 1 in
  let xy = B.binary b Ir.Mul x y in
  let sx = B.unary b Ir.Sin x in
  let r = B.binary b Ir.Add xy sx in
  B.ret b r;
  B.finish b

(* Branching: f(x) = if x > 0 then x*x else 3*x *)
let build_branchy () =
  let b = B.create ~name:"branchy" ~n_args:1 in
  let x = B.param b 0 in
  let zero = B.const b 0.0 in
  let c = B.cmp b Ir.Gt x zero in
  let bt = B.new_block b ~params:1 in
  let bf = B.new_block b ~params:1 in
  let join = B.new_block b ~params:1 in
  B.cond_br b ~cond:c ~if_true:(bt, [| x |]) ~if_false:(bf, [| x |]);
  B.switch b bt;
  let xt = B.param b 0 in
  let sq = B.binary b Ir.Mul xt xt in
  B.br b join [| sq |];
  B.switch b bf;
  let xf = B.param b 0 in
  let three = B.const b 3.0 in
  let tx = B.binary b Ir.Mul three xf in
  B.br b join [| tx |];
  B.switch b join;
  B.ret b (B.param b 0);
  B.finish b

(* Loop: f(x, n) = x^n by iterated multiplication. The strict block-argument
   discipline means loop-invariant values (x and n) are threaded through the
   loop header explicitly, exactly as SIL would. *)
let build_pow_loop () =
  let b = B.create ~name:"pow_loop" ~n_args:2 in
  let x = B.param b 0 and n = B.param b 1 in
  let header = B.new_block b ~params:4 in
  (* acc, i, x, n *)
  let body = B.new_block b ~params:4 in
  let exit = B.new_block b ~params:1 in
  let one = B.const b 1.0 in
  let zero = B.const b 0.0 in
  B.br b header [| one; zero; x; n |];
  B.switch b header;
  let acc = B.param b 0
  and i = B.param b 1
  and xh = B.param b 2
  and nh = B.param b 3 in
  let c = B.cmp b Ir.Lt i nh in
  B.cond_br b ~cond:c ~if_true:(body, [| acc; i; xh; nh |])
    ~if_false:(exit, [| acc |]);
  B.switch b body;
  let accb = B.param b 0
  and ib = B.param b 1
  and xb = B.param b 2
  and nb = B.param b 3 in
  let acc' = B.binary b Ir.Mul accb xb in
  let oneb = B.const b 1.0 in
  let i' = B.binary b Ir.Add ib oneb in
  B.br b header [| acc'; i'; xb; nb |];
  B.switch b exit;
  B.ret b (B.param b 0);
  B.finish b

(* Calls: g(x) = x * x; f(x) = g(x) + g(2x) *)
let build_with_calls () =
  let g =
    let b = B.create ~name:"square" ~n_args:1 in
    let x = B.param b 0 in
    B.ret b (B.binary b Ir.Mul x x);
    B.finish b
  in
  let f =
    let b = B.create ~name:"sum_of_squares" ~n_args:1 in
    let x = B.param b 0 in
    let g1 = B.call b "square" [| x |] in
    let two = B.const b 2.0 in
    let x2 = B.binary b Ir.Mul two x in
    let g2 = B.call b "square" [| x2 |] in
    B.ret b (B.binary b Ir.Add g1 g2);
    B.finish b
  in
  (g, f)

let modul_of fs =
  let m = Interp.create_module () in
  List.iter (Interp.add m) fs;
  m

(* {1 Interpreter} *)

let test_interp_straightline () =
  let f = build_mul_sin () in
  let m = modul_of [ f ] in
  Test_util.check_close "x*y + sin x" ((2.0 *. 3.0) +. sin 2.0)
    (Interp.eval m f [| 2.0; 3.0 |])

let test_interp_branches () =
  let f = build_branchy () in
  let m = modul_of [ f ] in
  Test_util.check_close "positive branch" 16.0 (Interp.eval m f [| 4.0 |]);
  Test_util.check_close "negative branch" (-6.0) (Interp.eval m f [| -2.0 |])

let test_interp_loop () =
  let f = build_pow_loop () in
  let m = modul_of [ f ] in
  Test_util.check_close "3^4" 81.0 (Interp.eval m f [| 3.0; 4.0 |]);
  Test_util.check_close "x^0" 1.0 (Interp.eval m f [| 3.0; 0.0 |])

let test_interp_calls () =
  let g, f = build_with_calls () in
  let m = modul_of [ g; f ] in
  Test_util.check_close "x^2 + (2x)^2" 45.0 (Interp.eval m f [| 3.0 |])

let test_interp_fuel () =
  let b = B.create ~name:"infinite" ~n_args:1 in
  let x = B.param b 0 in
  let loop = B.new_block b ~params:1 in
  B.br b loop [| x |];
  B.switch b loop;
  let v = B.param b 0 in
  let one = B.const b 1.0 in
  let v' = B.binary b Ir.Add v one in
  B.br b loop [| v' |];
  let f = B.finish b in
  let m = modul_of [ f ] in
  Test_util.check_raises_any "fuel exhausts" (fun () ->
      Interp.eval ~fuel:1000 m f [| 0.0 |])

(* A loop through a block with no instructions burns no instruction fuel;
   entering the block must cost fuel too. *)
let test_interp_fuel_empty_loop () =
  let f =
    {
      Ir.name = "spin";
      n_args = 1;
      blocks = [| { Ir.params = 1; insts = [||]; term = Ir.Br (0, [| 0 |]) } |];
    }
  in
  Ir.validate f;
  let m = modul_of [ f ] in
  match Interp.eval ~fuel:1000 m f [| 0.0 |] with
  | v -> Alcotest.failf "empty-block loop returned %g" v
  | exception Interp.Runtime_error _ -> ()

let test_interp_arity () =
  let f = build_mul_sin () in
  let m = modul_of [ f ] in
  Test_util.check_raises_any "arity mismatch" (fun () ->
      Interp.eval m f [| 1.0 |])

let test_validate_rejects_forward_ref () =
  Test_util.check_raises_any "operand before definition" (fun () ->
      Ir.validate
        {
          Ir.name = "bad";
          n_args = 1;
          blocks =
            [|
              {
                Ir.params = 1;
                insts = [| Ir.Unary (Ir.Neg, 5) |];
                term = Ir.Ret 1;
              };
            |];
        })

let test_pretty_print () =
  let f = build_branchy () in
  let s = Ir.to_string f in
  Test_util.check_true "mentions cond_br" (String.length s > 0);
  Test_util.check_true "contains function name"
    (String.length s >= 6 && String.sub s 0 5 = "func ")

(* {1 Activity analysis} *)

let test_activity_straightline () =
  let f = build_mul_sin () in
  let a = Activity.analyze f in
  Test_util.check_true "args varied" a.Activity.varied.(0).(0);
  Test_util.check_true "result varied" (Activity.return_is_varied f a);
  (* All three instructions are active: x*y, sin x, their sum. *)
  Test_util.check_int "active insts" 3 (Activity.active_inst_count f a)

let test_activity_wrt_subset () =
  let f = build_mul_sin () in
  (* w.r.t. y only: sin x is varied only via x, so it is inactive. *)
  let a = Activity.analyze ~wrt:[ 1 ] f in
  Test_util.check_int "active insts wrt y" 2 (Activity.active_inst_count f a)

let test_activity_constant_result () =
  let b = B.create ~name:"const_fn" ~n_args:1 in
  let c = B.const b 42.0 in
  B.ret b c;
  let f = B.finish b in
  let a = Activity.analyze f in
  Test_util.check_bool "result not varied" false (Activity.return_is_varied f a)

let test_activity_through_loop () =
  let f = build_pow_loop () in
  let a = Activity.analyze ~wrt:[ 0 ] f in
  (* The loop-carried accumulator must become varied via the fixed point. *)
  Test_util.check_true "loop result varied" (Activity.return_is_varied f a)

let test_activity_cmp_blocks_variedness () =
  (* f(x) = float(x > 0): varied input, but only through a comparison. *)
  let b = B.create ~name:"step" ~n_args:1 in
  let x = B.param b 0 in
  let zero = B.const b 0.0 in
  let c = B.cmp b Ir.Gt x zero in
  B.ret b c;
  let f = B.finish b in
  let a = Activity.analyze f in
  Test_util.check_bool "cmp result not differentiably varied" false
    (Activity.return_is_varied f a)

(* {1 Diagnostics} *)

let has_deriv_all _ = true

let test_diag_zero_gradient_warning () =
  let b = B.create ~name:"constant" ~n_args:1 in
  let c = B.const b 1.0 in
  B.ret b c;
  let f = B.finish b in
  let diags = Diagnostics.check ~has_derivative:has_deriv_all f in
  Test_util.check_true "warns result-not-varied"
    (List.exists
       (fun d -> d.Diagnostics.kind = Diagnostics.Result_not_varied)
       diags)

let test_diag_nondifferentiable_use () =
  let f = build_branchy () in
  let diags = Diagnostics.check ~has_derivative:has_deriv_all f in
  Test_util.check_true "warns about comparison of varied value"
    (List.exists
       (fun d -> d.Diagnostics.kind = Diagnostics.Nondifferentiable_use)
       diags)

let test_diag_multiblock_loop () =
  (* pow_loop's header compares i < n where i flows from a varied block
     parameter chain: the warning must locate the cmp in the header block,
     not the entry. *)
  let f = build_pow_loop () in
  let diags = Diagnostics.check ~has_derivative:has_deriv_all f in
  let nd =
    List.filter
      (fun d -> d.Diagnostics.kind = Diagnostics.Nondifferentiable_use)
      diags
  in
  Test_util.check_true "warns in loop header" (nd <> []);
  Test_util.check_true "located in a non-entry block"
    (List.for_all (fun d -> d.Diagnostics.block = 1) nd);
  Test_util.check_int "no errors" 0 (List.length (Diagnostics.errors diags))

let test_diag_wrt_subset_not_varied () =
  (* f(x, y) = x * x: differentiating only w.r.t. y yields an identically
     zero gradient, which must warn; w.r.t. x must stay silent. *)
  let b = B.create ~name:"xsq" ~n_args:2 in
  let x = B.param b 0 in
  B.ret b (B.binary b Ir.Mul x x);
  let f = B.finish b in
  let warns wrt =
    Diagnostics.check ~wrt ~has_derivative:has_deriv_all f
    |> List.exists (fun d ->
           d.Diagnostics.kind = Diagnostics.Result_not_varied)
  in
  Test_util.check_bool "wrt y warns" true (warns [ 1 ]);
  Test_util.check_bool "wrt x silent" false (warns [ 0 ]);
  Test_util.check_bool "default wrt silent" false
    (Diagnostics.check ~has_derivative:has_deriv_all f
    |> List.exists (fun d ->
           d.Diagnostics.kind = Diagnostics.Result_not_varied))

let test_diag_wrt_subset_suppresses_cmp () =
  (* branchy compares x > 0; when x is not differentiated the comparison no
     longer consumes a varied value, so the warning disappears. *)
  let f = build_branchy () in
  let diags = Diagnostics.check ~wrt:[] ~has_derivative:has_deriv_all f in
  Test_util.check_bool "no nondifferentiable-use with empty wrt" false
    (List.exists
       (fun d -> d.Diagnostics.kind = Diagnostics.Nondifferentiable_use)
       diags)

let test_diag_floor_warns () =
  let b = B.create ~name:"floored" ~n_args:1 in
  let x = B.param b 0 in
  let fl = B.unary b Ir.Floor x in
  B.ret b (B.binary b Ir.Mul fl x);
  let f = B.finish b in
  let diags = Diagnostics.check ~has_derivative:has_deriv_all f in
  Test_util.check_true "floor of varied value warns"
    (List.exists
       (fun d -> d.Diagnostics.kind = Diagnostics.Nondifferentiable_use)
       diags)

let test_diag_unknown_callee () =
  let b = B.create ~name:"caller" ~n_args:1 in
  let x = B.param b 0 in
  let r = B.call b "mystery" [| x |] in
  B.ret b r;
  let f = B.finish b in
  let diags = Diagnostics.check ~has_derivative:(fun _ -> false) f in
  let errs = Diagnostics.errors diags in
  Test_util.check_int "one error" 1 (List.length errs)

(* {1 Derivative synthesis} *)

let grad_of fs name args =
  let m = modul_of fs in
  let ctx = Transform.create_ctx m in
  Transform.gradient ctx name args

let test_grad_straightline () =
  (* d/dx (x*y + sin x) = y + cos x; d/dy = x *)
  let g = grad_of [ build_mul_sin () ] "mul_sin" [| 2.0; 3.0 |] in
  Test_util.check_close "d/dx" (3.0 +. cos 2.0) g.(0);
  Test_util.check_close "d/dy" 2.0 g.(1)

let test_grad_branches () =
  let f = build_branchy () in
  let g1 = grad_of [ f ] "branchy" [| 4.0 |] in
  Test_util.check_close "d/dx x^2 at 4" 8.0 g1.(0);
  let g2 = grad_of [ f ] "branchy" [| -2.0 |] in
  Test_util.check_close "d/dx 3x" 3.0 g2.(0)

let test_grad_loop () =
  (* d/dx x^4 = 4 x^3 *)
  let g = grad_of [ build_pow_loop () ] "pow_loop" [| 3.0; 4.0 |] in
  Test_util.check_close "4*27" 108.0 g.(0)

let test_grad_calls () =
  (* f(x) = x^2 + 4x^2 = 5x^2, f' = 10x *)
  let g, f = build_with_calls () in
  let grad = grad_of [ g; f ] "sum_of_squares" [| 3.0 |] in
  Test_util.check_close "10x" 30.0 grad.(0)

let test_grad_matches_finite_difference () =
  let f = build_mul_sin () in
  let m = modul_of [ f ] in
  let ctx = Transform.create_ctx m in
  let at = [| 1.3; -0.7 |] in
  let ad = Transform.gradient ctx "mul_sin" at in
  let fd =
    Test_util.finite_diff_grad (fun x -> Interp.eval m f x) at
  in
  Test_util.check_close ~eps:1e-4 "fd x" fd.(0) ad.(0);
  Test_util.check_close ~eps:1e-4 "fd y" fd.(1) ad.(1)

let test_jvp_matches_vjp_for_scalar () =
  let f = build_mul_sin () in
  let m = modul_of [ f ] in
  let ctx = Transform.create_ctx m in
  let at = [| 0.4; 1.9 |] in
  let g = Transform.gradient ctx "mul_sin" at in
  (* directional derivative along e0 must equal g.(0) *)
  let d = Transform.derivative_along ctx "mul_sin" ~at ~along:[| 1.0; 0.0 |] in
  Test_util.check_close "jvp = vjp" g.(0) d

let test_value_with_gradient () =
  let f = build_mul_sin () in
  let m = modul_of [ f ] in
  let ctx = Transform.create_ctx m in
  let v, g = Transform.value_with_gradient ctx "mul_sin" [| 2.0; 3.0 |] in
  Test_util.check_close "value" (6.0 +. sin 2.0) v;
  Test_util.check_close "grad" (3.0 +. cos 2.0) g.(0)

let test_custom_derivative_base_case () =
  (* Register a custom derivative for "square" and verify the transform stops
     recursing there: the custom VJP deliberately returns a wrong scaled
     gradient so we can tell it was used. *)
  let g, f = build_with_calls () in
  let m = modul_of [ g; f ] in
  let ctx = Transform.create_ctx m in
  Transform.register_custom ctx "square"
    {
      Transform.vjp = (fun args -> (args.(0) *. args.(0), fun s -> [| s *. 100.0 |]));
      jvp = (fun args -> (args.(0) *. args.(0), fun d -> d.(0) *. 100.0));
    };
  let grad = Transform.gradient ctx "sum_of_squares" [| 3.0 |] in
  (* pullback: 100 through g1 + 2 * 100 through g2 = 300 *)
  Test_util.check_close "custom derivative used" 300.0 grad.(0);
  Test_util.check_int "nothing synthesized for square" 1
    (Transform.synthesized_count ctx)

let test_recursive_function_derivative () =
  (* pow_rec(x, n) = if n < 0.5 then 1 else x * pow_rec(x, n-1) *)
  let b = B.create ~name:"pow_rec" ~n_args:2 in
  let x = B.param b 0 and n = B.param b 1 in
  let half = B.const b 0.5 in
  let c = B.cmp b Ir.Lt n half in
  let base = B.new_block b ~params:0 in
  let step = B.new_block b ~params:2 in
  B.cond_br b ~cond:c ~if_true:(base, [||]) ~if_false:(step, [| x; n |]);
  B.switch b base;
  let one = B.const b 1.0 in
  B.ret b one;
  B.switch b step;
  let xs = B.param b 0 and ns = B.param b 1 in
  let ones = B.const b 1.0 in
  let n1 = B.binary b Ir.Sub ns ones in
  let rec_ = B.call b "pow_rec" [| xs; n1 |] in
  B.ret b (B.binary b Ir.Mul xs rec_);
  let f = B.finish b in
  let m = modul_of [ f ] in
  Test_util.check_close "primal 2^5" 32.0 (Interp.eval m f [| 2.0; 5.0 |]);
  let ctx = Transform.create_ctx m in
  let g = Transform.gradient ctx "pow_rec" [| 2.0; 5.0 |] in
  Test_util.check_close "d/dx 2^5 = 5*16" 80.0 g.(0)

let test_transform_error_on_unknown_callee () =
  let b = B.create ~name:"caller2" ~n_args:1 in
  let x = B.param b 0 in
  B.ret b (B.call b "mystery" [| x |]);
  let f = B.finish b in
  let m = modul_of [ f ] in
  let ctx = Transform.create_ctx m in
  Test_util.check_raises_any "transform error" (fun () ->
      Transform.gradient ctx "caller2" [| 1.0 |])

let test_pullback_reusable () =
  let f = build_mul_sin () in
  let m = modul_of [ f ] in
  let ctx = Transform.create_ctx m in
  let d = Transform.derivative_of ctx "mul_sin" in
  let _, pb = d.Transform.vjp [| 2.0; 3.0 |] in
  let g1 = pb 1.0 in
  let g2 = pb 2.0 in
  Test_util.check_close "seed scales" (2.0 *. g1.(0)) g2.(0)

(* {1 Passes} *)

let test_constant_folding () =
  let b = B.create ~name:"foldable" ~n_args:1 in
  let x = B.param b 0 in
  let two = B.const b 2.0 in
  let three = B.const b 3.0 in
  let six = B.binary b Ir.Mul two three in
  let r = B.binary b Ir.Mul six x in
  B.ret b r;
  let f = B.finish b in
  let folded = Passes.constant_fold f in
  (* The 2*3 instruction must now be a constant. *)
  let has_const_6 =
    Array.exists
      (fun b ->
        Array.exists
          (fun i -> match i with Ir.Const 6.0 -> true | _ -> false)
          b.Ir.insts)
      folded.Ir.blocks
  in
  Test_util.check_true "folded to 6" has_const_6;
  let m = modul_of [ folded ] in
  Test_util.check_close "semantics preserved" 30.0 (Interp.eval m folded [| 5.0 |])

let test_dce_removes_unused () =
  let b = B.create ~name:"deadcode" ~n_args:1 in
  let x = B.param b 0 in
  let _dead = B.unary b Ir.Exp x in
  let r = B.binary b Ir.Mul x x in
  B.ret b r;
  let f = B.finish b in
  let cleaned = Passes.dead_code_elim f in
  Test_util.check_int "one inst left" 1 (Passes.inst_count cleaned);
  let m = modul_of [ cleaned ] in
  Test_util.check_close "semantics preserved" 9.0 (Interp.eval m cleaned [| 3.0 |])

let test_simplify_fixed_point () =
  let b = B.create ~name:"simplifiable" ~n_args:1 in
  let x = B.param b 0 in
  let one = B.const b 1.0 in
  let two = B.const b 2.0 in
  let three = B.binary b Ir.Add one two in
  let dead = B.binary b Ir.Mul three two in
  let _deader = B.unary b Ir.Sin dead in
  let r = B.binary b Ir.Add x one in
  B.ret b r;
  let f = B.finish b in
  let s = Passes.simplify f in
  (* Only `const 1` and `add x 1` should survive. *)
  Test_util.check_int "two insts" 2 (Passes.inst_count s);
  let m = modul_of [ s ] in
  Test_util.check_close "semantics preserved" 8.0 (Interp.eval m s [| 7.0 |])

(* {1 Property tests} *)

let qcheck_grad_loop =
  Test_util.qtest ~count:100 "pow_loop gradient = n*x^(n-1)"
    QCheck.(pair (float_range 0.5 3.0) (int_range 0 6))
    (fun (x, n) ->
      let f = build_pow_loop () in
      let g = grad_of [ f ] "pow_loop" [| x; float_of_int n |] in
      let expected =
        if n = 0 then 0.0 else float_of_int n *. (x ** float_of_int (n - 1))
      in
      Float.abs (g.(0) -. expected) < 1e-6 *. Float.max 1.0 (Float.abs expected))

let qcheck_grad_matches_fd =
  Test_util.qtest ~count:100 "branchy gradient matches finite differences"
    QCheck.(float_range (-5.0) 5.0)
    (fun x ->
      QCheck.assume (Float.abs x > 0.01);
      let f = build_branchy () in
      let m = modul_of [ f ] in
      let ctx = Transform.create_ctx m in
      let g = (Transform.gradient ctx "branchy" [| x |]).(0) in
      let fd = (Test_util.finite_diff_grad (fun a -> Interp.eval m f a) [| x |]).(0) in
      Float.abs (g -. fd) < 1e-3 *. Float.max 1.0 (Float.abs fd))

let qcheck_simplify_preserves_semantics =
  Test_util.qtest ~count:100 "simplify preserves mul_sin semantics"
    QCheck.(pair (float_range (-3.0) 3.0) (float_range (-3.0) 3.0))
    (fun (x, y) ->
      let f = build_mul_sin () in
      let s = Passes.simplify f in
      let m1 = modul_of [ f ] and m2 = modul_of [ s ] in
      let a = Interp.eval m1 f [| x; y |] and b = Interp.eval m2 s [| x; y |] in
      Float.abs (a -. b) < 1e-12)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "sil.interp",
      [
        tc "straight-line" `Quick test_interp_straightline;
        tc "branches" `Quick test_interp_branches;
        tc "loop" `Quick test_interp_loop;
        tc "calls" `Quick test_interp_calls;
        tc "fuel bound" `Quick test_interp_fuel;
        tc "fuel bounds empty-block loops" `Quick test_interp_fuel_empty_loop;
        tc "arity check" `Quick test_interp_arity;
        tc "validation rejects forward refs" `Quick test_validate_rejects_forward_ref;
        tc "pretty printer" `Quick test_pretty_print;
      ] );
    ( "sil.activity",
      [
        tc "straight-line all active" `Quick test_activity_straightline;
        tc "wrt subset" `Quick test_activity_wrt_subset;
        tc "constant result not varied" `Quick test_activity_constant_result;
        tc "loop fixed point" `Quick test_activity_through_loop;
        tc "cmp blocks variedness" `Quick test_activity_cmp_blocks_variedness;
      ] );
    ( "sil.diagnostics",
      [
        tc "zero-gradient warning" `Quick test_diag_zero_gradient_warning;
        tc "non-differentiable use" `Quick test_diag_nondifferentiable_use;
        tc "multi-block loop" `Quick test_diag_multiblock_loop;
        tc "wrt subset not varied" `Quick test_diag_wrt_subset_not_varied;
        tc "wrt subset suppresses cmp" `Quick test_diag_wrt_subset_suppresses_cmp;
        tc "floor warns" `Quick test_diag_floor_warns;
        tc "unknown callee error" `Quick test_diag_unknown_callee;
      ] );
    ( "sil.transform",
      [
        tc "straight-line gradient" `Quick test_grad_straightline;
        tc "branch gradients" `Quick test_grad_branches;
        tc "loop gradient" `Quick test_grad_loop;
        tc "call gradient" `Quick test_grad_calls;
        tc "matches finite differences" `Quick test_grad_matches_finite_difference;
        tc "jvp agrees with vjp" `Quick test_jvp_matches_vjp_for_scalar;
        tc "value_with_gradient" `Quick test_value_with_gradient;
        tc "custom derivative base case" `Quick test_custom_derivative_base_case;
        tc "recursive function" `Quick test_recursive_function_derivative;
        tc "unknown callee raises" `Quick test_transform_error_on_unknown_callee;
        tc "pullback reusable" `Quick test_pullback_reusable;
        qcheck_grad_loop;
        qcheck_grad_matches_fd;
      ] );
    ( "sil.passes",
      [
        tc "constant folding" `Quick test_constant_folding;
        tc "dce" `Quick test_dce_removes_unused;
        tc "simplify fixed point" `Quick test_simplify_fixed_point;
        qcheck_simplify_preserves_semantics;
      ] );
  ]

(* {1 Parser} *)

let mul_sin_text = {|
func @mul_sin(2 args) {
bb0(v0, v1):
  v2 = mul v0, v1
  v3 = sin v0
  v4 = add v2, v3
  ret v4
}
|}

let test_parse_straightline () =
  let f = Parser.parse_func mul_sin_text in
  let m = modul_of [ f ] in
  Test_util.check_close "parsed semantics" ((2.0 *. 3.0) +. sin 2.0)
    (Interp.eval m f [| 2.0; 3.0 |])

let test_parse_roundtrip () =
  (* print -> parse -> print is a fixed point, and semantics survive *)
  List.iter
    (fun f ->
      let text = Ir.to_string f in
      let f' = Parser.parse_func text in
      Test_util.check_string "pretty-printed fixed point" text (Ir.to_string f');
      let m = modul_of [ f ] and m' = modul_of [ f' ] in
      List.iter
        (fun args ->
          Test_util.check_close "same semantics" (Interp.eval m f args)
            (Interp.eval m' f' args))
        [ [| 1.5; 2.0 |]; [| -0.5; 3.0 |] ])
    [ build_mul_sin (); build_pow_loop () ]

let test_parse_control_flow () =
  let f = build_branchy () in
  let f' = Parser.parse_func (Ir.to_string f) in
  let m = modul_of [ f' ] in
  Test_util.check_close "positive branch" 16.0 (Interp.eval m f' [| 4.0 |]);
  Test_util.check_close "negative branch" (-6.0) (Interp.eval m f' [| -2.0 |])

let test_parse_module_with_calls () =
  let g, f = build_with_calls () in
  let text = Ir.to_string g ^ "\n" ^ Ir.to_string f in
  let m = Parser.parse_module text in
  Test_util.check_close "module semantics" 45.0
    (Interp.eval_name m "sum_of_squares" [| 3.0 |])

let test_parse_then_differentiate () =
  (* the full §2 pipeline from text: parse, transform, evaluate gradient *)
  let f = Parser.parse_func mul_sin_text in
  let m = modul_of [ f ] in
  let ctx = Transform.create_ctx m in
  let grad = Transform.gradient ctx "mul_sin" [| 2.0; 3.0 |] in
  Test_util.check_close "gradient of parsed code" (3.0 +. cos 2.0) grad.(0)

let test_parse_comments_and_blanks () =
  let text = "; a comment\n\n" ^ mul_sin_text ^ "\n; trailing comment\n" in
  let f = Parser.parse_func text in
  Test_util.check_string "name" "mul_sin" f.Ir.name

let test_parse_errors () =
  let cases =
    [
      ("garbage", "not msil at all");
      ("sparse values", "func @f(1 args) {\nbb0(v0):\n  v5 = neg v0\n  ret v5\n}");
      ("unknown op", "func @f(1 args) {\nbb0(v0):\n  v1 = frobnicate v0\n  ret v1\n}");
      ("missing terminator", "func @f(1 args) {\nbb0(v0):\n  v1 = neg v0\n}");
      ("unterminated", "func @f(1 args) {\nbb0(v0):\n  ret v0");
      ("bad arity", "func @f(1 args) {\nbb0(v0):\n  v1 = add v0\n  ret v1\n}");
    ]
  in
  List.iter
    (fun (name, text) ->
      Test_util.check_raises_any name (fun () -> Parser.parse_func text))
    cases

let parser_suite =
  let tc = Alcotest.test_case in
  [
    ( "sil.parser",
      [
        tc "straight-line" `Quick test_parse_straightline;
        tc "round trip" `Quick test_parse_roundtrip;
        tc "control flow" `Quick test_parse_control_flow;
        tc "module with calls" `Quick test_parse_module_with_calls;
        tc "parse then differentiate" `Quick test_parse_then_differentiate;
        tc "comments and blanks" `Quick test_parse_comments_and_blanks;
        tc "rejects malformed input" `Quick test_parse_errors;
      ] );
  ]

let suite = suite @ parser_suite

(* {1 JVP code generation} *)

let test_codegen_jvp_matches_transform () =
  let f = build_mul_sin () in
  let m = modul_of [ f ] in
  let ctx = Transform.create_ctx m in
  List.iter
    (fun at ->
      let via_transform = Transform.gradient ctx "mul_sin" at in
      let via_codegen = Codegen.gradient_via_codegen m f at in
      Test_util.check_close "d/dx agree" via_transform.(0) via_codegen.(0);
      Test_util.check_close "d/dy agree" via_transform.(1) via_codegen.(1))
    [ [| 2.0; 3.0 |]; [| -0.5; 1.7 |]; [| 0.0; 0.0 |] ]

let test_codegen_emits_real_ir () =
  let f = build_mul_sin () in
  let m = modul_of [ f ] in
  let jvp = Codegen.generate_jvp m f in
  Test_util.check_int "doubled arity" 4 jvp.Ir.n_args;
  Test_util.check_string "conventional name" "mul_sin_jvp" jvp.Ir.name;
  (* the generated code is plain MSIL: the parser round-trips it *)
  let reparsed = Parser.parse_func (Ir.to_string jvp) in
  Test_util.check_close "round-tripped derivative" 
    (Interp.eval m jvp [| 2.0; 3.0; 1.0; 0.0 |])
    (Interp.eval m reparsed [| 2.0; 3.0; 1.0; 0.0 |])

let test_codegen_output_is_optimizable () =
  (* §2.2: the generated code is "fully amenable to the same set of
     compile-time optimizations as regular Swift code" *)
  let f = build_mul_sin () in
  let m = modul_of [ f ] in
  let jvp = Codegen.generate_jvp m f in
  let simplified = Passes.simplify jvp in
  Test_util.check_true "DCE/folding bites"
    (Passes.inst_count simplified <= Passes.inst_count jvp);
  Test_util.check_close "semantics preserved"
    (Interp.eval m jvp [| 1.1; 0.4; 0.0; 1.0 |])
    (Interp.eval m simplified [| 1.1; 0.4; 0.0; 1.0 |])

let test_codegen_second_derivative () =
  (* lifting the §2.3 limitation for straight-line code: the generated JVP is
     plain IR, so the runtime transform can differentiate it AGAIN.
     f(x) = sin(x) * x. f''(x) = 2cos x - x sin x. *)
  let b = B.create ~name:"sinx_x" ~n_args:1 in
  let x = B.param b 0 in
  let f_ir = B.binary b Ir.Mul (B.unary b Ir.Sin x) x in
  B.ret b f_ir;
  let f = B.finish b in
  let m = modul_of [ f ] in
  let jvp = Codegen.generate_jvp m f in
  (* jvp(x, dx) with dx = 1 computes f'(x); differentiate THAT w.r.t. x *)
  let ctx = Transform.create_ctx m in
  let x0 = 0.8 in
  let g = Transform.gradient ctx jvp.Ir.name [| x0; 1.0 |] in
  let expected = (2.0 *. cos x0) -. (x0 *. sin x0) in
  Test_util.check_close "f'' via transform-of-generated-code" expected g.(0)

let test_codegen_with_calls () =
  let g, f = build_with_calls () in
  let m = modul_of [ g; f ] in
  (* gradient of 5x^2 = 10x, through a generated callee JVP *)
  let grad = Codegen.gradient_via_codegen m f [| 3.0 |] in
  Test_util.check_close "call chain" 30.0 grad.(0);
  Test_util.check_true "callee jvp registered"
    (Interp.find m "square_jvp" <> None)

let test_codegen_rejects_control_flow () =
  let f = build_branchy () in
  let m = modul_of [ f ] in
  Test_util.check_raises_any "control flow unsupported" (fun () ->
      Codegen.generate_jvp m f)

let test_codegen_relu_mask () =
  let b = B.create ~name:"relu_fn" ~n_args:1 in
  let x = B.param b 0 in
  B.ret b (B.unary b Ir.Relu x);
  let f = B.finish b in
  let m = modul_of [ f ] in
  let grad_pos = Codegen.gradient_via_codegen m f [| 2.0 |] in
  let grad_neg = Codegen.gradient_via_codegen m f [| -2.0 |] in
  Test_util.check_close "relu' positive" 1.0 grad_pos.(0);
  Test_util.check_close "relu' negative" 0.0 grad_neg.(0)

let qcheck_codegen_matches_fd =
  Test_util.qtest ~count:80 "generated JVP matches finite differences"
    QCheck.(pair (float_range 0.3 2.0) (float_range 0.3 2.0))
    (fun (x, y) ->
      (* f(x, y) = sigmoid(x / y) + max(x, y) * tanh(y) *)
      let b = B.create ~name:"mixed" ~n_args:2 in
      let vx = B.param b 0 and vy = B.param b 1 in
      let s = B.unary b Ir.Sigmoid (B.binary b Ir.Div vx vy) in
      let mx = B.binary b Ir.Max vx vy in
      let t = B.binary b Ir.Mul mx (B.unary b Ir.Tanh vy) in
      B.ret b (B.binary b Ir.Add s t);
      let f = B.finish b in
      let m = modul_of [ f ] in
      QCheck.assume (Float.abs (x -. y) > 1e-3);
      let grad = Codegen.gradient_via_codegen m f [| x; y |] in
      let fd =
        Test_util.finite_diff_grad (fun a -> Interp.eval m f a) [| x; y |]
      in
      Float.abs (grad.(0) -. fd.(0)) < 1e-3 *. Float.max 1.0 (Float.abs fd.(0))
      && Float.abs (grad.(1) -. fd.(1)) < 1e-3 *. Float.max 1.0 (Float.abs fd.(1)))

let codegen_suite =
  let tc = Alcotest.test_case in
  [
    ( "sil.codegen",
      [
        tc "matches the runtime transform" `Quick test_codegen_jvp_matches_transform;
        tc "emits real, parseable IR" `Quick test_codegen_emits_real_ir;
        tc "output is optimizable" `Quick test_codegen_output_is_optimizable;
        tc "second derivatives (S2.3 lifted)" `Quick test_codegen_second_derivative;
        tc "calls via callee JVPs" `Quick test_codegen_with_calls;
        tc "rejects control flow" `Quick test_codegen_rejects_control_flow;
        tc "relu mask" `Quick test_codegen_relu_mask;
        qcheck_codegen_matches_fd;
      ] );
  ]

let suite = suite @ codegen_suite

(* {1 VJP code generation} *)

let test_vjp_codegen_matches_jvp_codegen () =
  let f = build_mul_sin () in
  let m = modul_of [ f ] in
  List.iter
    (fun at ->
      let jvp_grad = Codegen.gradient_via_codegen m f at in
      let vjp_grad = Codegen.gradient_via_vjp_codegen m f at in
      Test_util.check_float_array "both codegen modes agree" jvp_grad vjp_grad)
    [ [| 2.0; 3.0 |]; [| -1.1; 0.4 |] ]

let test_vjp_codegen_seed_scales () =
  let f = build_mul_sin () in
  let m = modul_of [ f ] in
  let vjp = Codegen.generate_vjp m f ~wrt:0 in
  let g1 = Interp.eval m vjp [| 2.0; 3.0; 1.0 |] in
  let g2 = Interp.eval m vjp [| 2.0; 3.0; -2.5 |] in
  Test_util.check_close "pullback is linear in the seed" (-2.5 *. g1) g2

let test_vjp_codegen_select () =
  (* f(x, y) = select(x > y, x*x, y) : subgradient switches at the branch *)
  let b = B.create ~name:"sel_fn" ~n_args:2 in
  let x = B.param b 0 and y = B.param b 1 in
  let c = B.cmp b Ir.Gt x y in
  let xx = B.binary b Ir.Mul x x in
  B.ret b (B.select b ~cond:c ~if_true:xx ~if_false:y);
  let f = B.finish b in
  let m = modul_of [ f ] in
  let g_taken = Codegen.gradient_via_vjp_codegen m f [| 3.0; 1.0 |] in
  Test_util.check_float_array "x-branch taken" [| 6.0; 0.0 |] g_taken;
  let g_other = Codegen.gradient_via_vjp_codegen m f [| 1.0; 3.0 |] in
  Test_util.check_float_array "y-branch taken" [| 0.0; 1.0 |] g_other

let test_vjp_codegen_unused_arg () =
  (* an argument that never influences the result gets a literal zero *)
  let b = B.create ~name:"ignores_y" ~n_args:2 in
  let x = B.param b 0 in
  B.ret b (B.binary b Ir.Mul x x);
  let f = B.finish b in
  let m = modul_of [ f ] in
  let g = Codegen.gradient_via_vjp_codegen m f [| 4.0; 99.0 |] in
  Test_util.check_float_array "dead argument" [| 8.0; 0.0 |] g

let test_vjp_codegen_calls () =
  let g, f = build_with_calls () in
  let m = modul_of [ g; f ] in
  let grad = Codegen.gradient_via_vjp_codegen m f [| 3.0 |] in
  Test_util.check_close "through callee partials" 30.0 grad.(0)

let test_vjp_codegen_rejects_control_flow () =
  let f = build_branchy () in
  let m = modul_of [ f ] in
  Test_util.check_raises_any "control flow" (fun () ->
      Codegen.generate_vjp m f ~wrt:0)

let qcheck_vjp_codegen_matches_transform =
  Test_util.qtest ~count:80 "generated VJP = runtime transform"
    QCheck.(pair (float_range 0.3 2.5) (float_range 0.3 2.5))
    (fun (x, y) ->
      let b = B.create ~name:"qvjp" ~n_args:2 in
      let vx = B.param b 0 and vy = B.param b 1 in
      let t1 = B.binary b Ir.Mul (B.unary b Ir.Exp vx) (B.unary b Ir.Log vy) in
      let t2 = B.binary b Ir.Div vy (B.unary b Ir.Sqrt vx) in
      B.ret b (B.binary b Ir.Add t1 t2);
      let f = B.finish b in
      let m = modul_of [ f ] in
      let ctx = Transform.create_ctx m in
      let g1 = Transform.gradient ctx "qvjp" [| x; y |] in
      let g2 = Codegen.gradient_via_vjp_codegen m f [| x; y |] in
      Float.abs (g1.(0) -. g2.(0)) < 1e-9 *. Float.max 1.0 (Float.abs g1.(0))
      && Float.abs (g1.(1) -. g2.(1)) < 1e-9 *. Float.max 1.0 (Float.abs g1.(1)))

let vjp_codegen_suite =
  let tc = Alcotest.test_case in
  [
    ( "sil.vjp_codegen",
      [
        tc "agrees with JVP codegen" `Quick test_vjp_codegen_matches_jvp_codegen;
        tc "linear in the seed" `Quick test_vjp_codegen_seed_scales;
        tc "select routes adjoints" `Quick test_vjp_codegen_select;
        tc "dead arguments get zero" `Quick test_vjp_codegen_unused_arg;
        tc "calls" `Quick test_vjp_codegen_calls;
        tc "rejects control flow" `Quick test_vjp_codegen_rejects_control_flow;
        qcheck_vjp_codegen_matches_transform;
      ] );
  ]

let suite = suite @ vjp_codegen_suite
