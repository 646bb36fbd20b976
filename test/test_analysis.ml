(** Tests for the cross-layer static analysis: the dataflow engine and its
    instances, the MSIL verifier, the HLO checker and lints, the producers'
    own validation, and the pool write-race sanitizer. *)

open S4o_sil
module B = Builder
module V = S4o_analysis.Verify
module D = S4o_sil.Dataflow
module HC = S4o_analysis.Hlo_check
module San = S4o_tensor.Sanitizer
module Hlo = S4o_xla.Hlo
module C = S4o_ops.Catalog
open S4o_tensor

(* f(x, y) = x*y + sin x, with one dead instruction (exp y). *)
let build_with_dead () =
  let b = B.create ~name:"with_dead" ~n_args:2 in
  let x = B.param b 0 and y = B.param b 1 in
  let xy = B.binary b Ir.Mul x y in
  let _dead = B.unary b Ir.Exp y in
  let sx = B.unary b Ir.Sin x in
  B.ret b (B.binary b Ir.Add xy sx);
  B.finish b

(* Diamond: both branches forward the entry argument x to the join. *)
let build_diamond_same_arg () =
  let b = B.create ~name:"diamond" ~n_args:1 in
  let x = B.param b 0 in
  let zero = B.const b 0.0 in
  let c = B.cmp b Ir.Gt x zero in
  let bt = B.new_block b ~params:1 in
  let bf = B.new_block b ~params:1 in
  let join = B.new_block b ~params:1 in
  B.cond_br b ~cond:c ~if_true:(bt, [| x |]) ~if_false:(bf, [| x |]);
  B.switch b bt;
  B.br b join [| B.binary b Ir.Mul (B.param b 0) (B.param b 0) |];
  B.switch b bf;
  B.br b join [| B.unary b Ir.Neg (B.param b 0) |];
  B.switch b join;
  B.ret b (B.param b 0);
  B.finish b

(* {1 Dataflow engine} *)

let test_liveness_dead_inst () =
  let f = build_with_dead () in
  Alcotest.(check (list (pair int int)))
    "exp y is dead"
    [ (0, 1) ]
    (D.Liveness.dead_insts f);
  let f' = Passes.dead_code_elim f in
  Alcotest.(check (list (pair int int))) "dce restores density" []
    (D.Liveness.dead_insts f')

let test_liveness_through_branches () =
  let f = build_diamond_same_arg () in
  let live = D.Liveness.analyze f in
  (* entry x feeds both branch args, so it is live; join's param is the
     return value. *)
  Test_util.check_true "entry arg live" live.(0).(0);
  Test_util.check_true "join param live" live.(3).(0)

let test_reaching_redundant_params () =
  let f = build_diamond_same_arg () in
  (* bt and bf each receive x from the single entry branch: redundant.
     join receives two different defs: not redundant. *)
  let red = D.Reaching.redundant_params f in
  Alcotest.(check (list (pair int int))) "bt/bf params" [ (1, 0); (2, 0) ] red

let test_reaching_join_merges () =
  let f = build_diamond_same_arg () in
  let facts = D.Reaching.analyze f in
  Test_util.check_int "join param reached by two defs" 2
    (D.Reaching.S.cardinal facts.(3).(0))

let test_const_prop_constant_branch () =
  let b = B.create ~name:"const_branch" ~n_args:1 in
  let one = B.const b 1.0 in
  let two = B.const b 2.0 in
  let c = B.cmp b Ir.Lt one two in
  let bt = B.new_block b ~params:1 in
  let bf = B.new_block b ~params:1 in
  B.cond_br b ~cond:c ~if_true:(bt, [| one |]) ~if_false:(bf, [| two |]);
  B.switch b bt;
  B.ret b (B.param b 0);
  B.switch b bf;
  B.ret b (B.param b 0);
  let f = B.finish b in
  match D.Const_prop.constant_branches f with
  | [ (0, v) ] -> Test_util.check_close "1 < 2" 1.0 v
  | other ->
      Alcotest.failf "expected one constant branch, got %d" (List.length other)

let test_const_prop_through_join () =
  (* Both branches pass the same constant: the join param is Const. *)
  let b = B.create ~name:"joined_const" ~n_args:1 in
  let x = B.param b 0 in
  let five = B.const b 5.0 in
  let zero = B.const b 0.0 in
  let c = B.cmp b Ir.Gt x zero in
  let bt = B.new_block b ~params:1 in
  let bf = B.new_block b ~params:1 in
  let join = B.new_block b ~params:1 in
  B.cond_br b ~cond:c ~if_true:(bt, [| five |]) ~if_false:(bf, [| five |]);
  B.switch b bt;
  B.br b join [| B.param b 0 |];
  B.switch b bf;
  B.br b join [| B.param b 0 |];
  B.switch b join;
  B.ret b (B.param b 0);
  let f = B.finish b in
  let facts = D.Const_prop.analyze f in
  (match facts.(3).(0) with
  | D.Const_prop.Const v -> Test_util.check_close "join is 5" 5.0 v
  | _ -> Alcotest.fail "join param should be constant")

(* {1 IR verifier} *)

let test_verifier_clean_on_good_ir () =
  List.iter
    (fun f ->
      Alcotest.(check int)
        ("no errors in " ^ f.Ir.name)
        0
        (List.length (V.errors (V.func f))))
    [ build_with_dead (); build_diamond_same_arg () ]

let test_verifier_use_before_def () =
  (* Injected defect: an operand index past the defined frontier — the
     signature of swapped/renumbered operands escaping a pass. *)
  let f =
    {
      Ir.name = "bad_use";
      n_args = 2;
      blocks =
        [|
          {
            Ir.params = 2;
            insts = [| Ir.Binary (Ir.Add, 0, 3) |];
            term = Ir.Ret 2;
          };
        |];
    }
  in
  let errs = V.errors (V.func f) in
  Test_util.check_true "use-before-def caught" (List.length errs >= 1);
  Test_util.check_raises_any "validate raises" (fun () -> Ir.validate f)

let test_verifier_branch_arity () =
  let f =
    {
      Ir.name = "bad_arity";
      n_args = 1;
      blocks =
        [|
          { Ir.params = 1; insts = [||]; term = Ir.Br (1, [||]) };
          { Ir.params = 1; insts = [||]; term = Ir.Ret 0 };
        |];
    }
  in
  let errs = V.errors (V.func f) in
  Test_util.check_true "arity mismatch caught" (List.length errs = 1)

let test_verifier_missing_target () =
  let f =
    {
      Ir.name = "bad_target";
      n_args = 1;
      blocks = [| { Ir.params = 1; insts = [||]; term = Ir.Br (7, [||]) } |];
    }
  in
  Test_util.check_true "missing block caught"
    (V.errors (V.func f) <> [])

let test_verifier_density_lint () =
  let f = build_with_dead () in
  let dead_warnings =
    List.filter
      (fun (v : V.violation) -> v.site = "inst 1")
      (V.warnings (V.func f))
  in
  Test_util.check_int "dead result warned" 1 (List.length dead_warnings);
  Test_util.check_int "dce output density-clean" 0
    (List.length
       (List.filter
          (fun (v : V.violation) ->
            (* only density warnings; redundant-param etc. not applicable *)
            String.length v.message >= 4 && String.sub v.message 0 4 = "dead")
          (V.warnings (V.func (Passes.dead_code_elim f)))))

let test_verifier_unreachable_block () =
  let f =
    {
      Ir.name = "unreachable";
      n_args = 1;
      blocks =
        [|
          { Ir.params = 1; insts = [||]; term = Ir.Ret 0 };
          { Ir.params = 0; insts = [||]; term = Ir.Ret 0 };
        |];
    }
  in
  Test_util.check_true "errors on bb1 ret range or warn unreachable"
    (V.func f
    |> List.exists (fun (v : V.violation) -> v.block = 1))

(* {1 Producers validate what they make} *)

(* [f] raises its IR's validation error, naming [stage]. *)
let raises_at ~stage msg f =
  match f () with
  | _ -> Alcotest.failf "%s: expected an invalid-IR error" msg
  | exception (Ir.Invalid_ir m | Hlo.Invalid_hlo m) ->
      Test_util.check_true
        (Printf.sprintf "%s names %s: %s" msg stage m)
        (String.starts_with ~prefix:(stage ^ ": ") m)

let test_producers_catch_corrupt_ir () =
  (* A branch to a missing block passes through constant folding untouched,
     so the pass's own output validation is what catches it. *)
  let corrupt =
    {
      Ir.name = "corrupt";
      n_args = 1;
      blocks =
        [|
          { Ir.params = 1; insts = [| Ir.Unary (Ir.Sin, 0) |]; term = Ir.Br (7, [||]) };
        |];
    }
  in
  raises_at ~stage:"pass:constant_fold" "simplify" (fun () ->
      Passes.simplify corrupt);
  raises_at ~stage:"pass:dead_code_elim" "dead_code_elim" (fun () ->
      Passes.dead_code_elim corrupt);
  let m = Interp.create_module () in
  Interp.add m corrupt;
  raises_at ~stage:"transform" "derivative_of" (fun () ->
      Transform.derivative_of (Transform.create_ctx m) "corrupt")

let test_producers_catch_corrupt_hlo () =
  let p = Hlo.param ~index:0 ~shape:[| 4 |] in
  let bad =
    (* declares [8] but add of [4],[4] gives [4] *)
    { (Hlo.op (C.add [| 4 |] [| 4 |]) [ p; p ]) with Hlo.shape = [| 8 |] }
  in
  let g = Hlo.graph_of_outputs [ bad ] in
  raises_at ~stage:"opt:constant_fold" "optimize" (fun () -> S4o_xla.Opt.optimize g);
  raises_at ~stage:"opt:constant_fold" "constant_fold" (fun () ->
      S4o_xla.Opt.constant_fold g);
  raises_at ~stage:"compile" "compile" (fun () -> S4o_xla.Compiler.compile g)

(* {1 HLO checker} *)

let test_hlo_clean_catalog_graph () =
  let p0 = Hlo.param ~index:0 ~shape:[| 2; 3 |] in
  let p1 = Hlo.param ~index:1 ~shape:[| 3; 4 |] in
  let mm = Hlo.op (C.matmul [| 2; 3 |] [| 3; 4 |]) [ p0; p1 ] in
  let r = Hlo.op (C.relu [| 2; 4 |]) [ mm ] in
  let s = Hlo.op (C.sum_all [| 2; 4 |]) [ r ] in
  let g = Hlo.graph_of_outputs [ s ] in
  Alcotest.(check int) "no findings" 0 (List.length (HC.check_graph g))

let test_hlo_shape_mismatch () =
  let p0 = Hlo.param ~index:0 ~shape:[| 2; 3 |] in
  let p1 = Hlo.param ~index:1 ~shape:[| 3; 4 |] in
  let bad =
    { (Hlo.op (C.matmul [| 2; 3 |] [| 3; 4 |]) [ p0; p1 ]) with Hlo.shape = [| 4; 2 |] }
  in
  let errs = HC.errors (HC.check_graph (Hlo.graph_of_outputs [ bad ])) in
  Test_util.check_int "one shape error" 1 (List.length errs);
  Test_util.check_string "rule" "shape" (List.hd errs).HC.rule

let test_hlo_arity_error () =
  let p0 = Hlo.param ~index:0 ~shape:[| 4 |] in
  let bad = Hlo.op (C.add [| 4 |] [| 4 |]) [ p0 ] in
  let errs = HC.errors (HC.check_graph (Hlo.graph_of_outputs [ bad ])) in
  Test_util.check_int "one arity error" 1 (List.length errs);
  Test_util.check_string "rule" "arity" (List.hd errs).HC.rule

let test_hlo_conv_backward_consistency () =
  (* Consistent conv2d_backward_input: input 1x8x8x3, filter 3x3x3x8,
     same padding, stride 1 -> grad 1x8x8x8. *)
  let filter = Hlo.param ~index:0 ~shape:[| 3; 3; 3; 8 |] in
  let grad = Hlo.param ~index:1 ~shape:[| 1; 8; 8; 8 |] in
  let op =
    C.conv2d_backward_input ~stride:(1, 1) ~padding:Convolution.Same
      ~input_shape:[| 1; 8; 8; 3 |] [| 3; 3; 3; 8 |] [| 1; 8; 8; 8 |]
  in
  let good = Hlo.op op [ filter; grad ] in
  Test_util.check_int "consistent backward clean" 0
    (List.length (HC.errors (HC.check_graph (Hlo.graph_of_outputs [ good ]))));
  (* Same node but declaring the wrong input shape. *)
  let bad = { good with Hlo.shape = [| 1; 9; 8; 3 |] } in
  Test_util.check_true "inconsistent backward caught"
    (HC.errors (HC.check_graph (Hlo.graph_of_outputs [ bad ])) <> [])

let test_hlo_duplicate_literal_lint () =
  let l1 = Hlo.literal (Dense.of_array [| 2 |] [| 1.0; 2.0 |]) in
  let l2 = Hlo.literal (Dense.of_array [| 2 |] [| 1.0; 2.0 |]) in
  let s = Hlo.op (C.add [| 2 |] [| 2 |]) [ l1; l2 ] in
  let fs = HC.check_graph (Hlo.graph_of_outputs [ s ]) in
  Test_util.check_true "dup literal linted"
    (List.exists (fun (f : HC.finding) -> f.rule = "dup-literal") fs);
  (* cse merges them; the lint then goes quiet *)
  let merged, _ = S4o_xla.Opt.optimize (Hlo.graph_of_outputs [ s ]) in
  Test_util.check_true "clean after cse"
    (not
       (List.exists
          (fun (f : HC.finding) -> f.rule = "dup-literal")
          (HC.check_graph merged)))

let test_hlo_dead_node_lint () =
  let p0 = Hlo.param ~index:0 ~shape:[| 4 |] in
  let live = Hlo.op (C.relu [| 4 |]) [ p0 ] in
  let dead = Hlo.op (C.neg [| 4 |]) [ p0 ] in
  let g = { Hlo.outputs = [ live ]; nodes = [ p0; live; dead ] } in
  Test_util.check_true "dead node linted"
    (List.exists (fun (f : HC.finding) -> f.rule = "dead-node") (HC.check_graph g))

let test_hlo_param_density () =
  (* Sparse numbering is survivable (optimizers drop unused params), so it
     lints; a duplicate index is a hard error. *)
  let p0 = Hlo.param ~index:0 ~shape:[| 4 |] in
  let p2 = Hlo.param ~index:2 ~shape:[| 4 |] in
  let s = Hlo.op (C.add [| 4 |] [| 4 |]) [ p0; p2 ] in
  let fs = HC.check_graph (Hlo.graph_of_outputs [ s ]) in
  Test_util.check_int "gap is not fatal" 0 (List.length (HC.errors fs));
  Test_util.check_true "param gap linted"
    (List.exists (fun (f : HC.finding) -> f.rule = "param") fs);
  let d0 = Hlo.param ~index:0 ~shape:[| 4 |] in
  let d0' = Hlo.param ~index:0 ~shape:[| 4 |] in
  let s' = Hlo.op (C.add [| 4 |] [| 4 |]) [ d0; d0' ] in
  Test_util.check_true "duplicate index is fatal"
    (HC.errors (HC.check_graph (Hlo.graph_of_outputs [ s' ]))
    |> List.exists (fun (f : HC.finding) -> f.rule = "param"))

let test_hlo_pending_limit () =
  let p0 = Hlo.param ~index:0 ~shape:[| 4 |] in
  let n1 = Hlo.op (C.relu [| 4 |]) [ p0 ] in
  let n2 = Hlo.op (C.neg [| 4 |]) [ n1 ] in
  let g = Hlo.graph_of_outputs [ n2 ] in
  Test_util.check_true "region lint fires"
    (List.exists
       (fun (f : HC.finding) -> f.rule = "pending-region")
       (HC.check_graph ~pending_limit:2 g));
  Test_util.check_int "quiet without limit" 0
    (List.length (HC.check_graph g))

let test_hazard_detector () =
  let hz = HC.Hazard.create ~threshold:3 () in
  let graph_at batch =
    let p = Hlo.param ~index:0 ~shape:[| batch; 4 |] in
    Hlo.graph_of_outputs [ Hlo.op (C.relu [| batch; 4 |]) [ p ] ]
  in
  Test_util.check_int "first" 0 (List.length (HC.Hazard.observe hz (graph_at 1)));
  Test_util.check_int "repeat same shape" 0
    (List.length (HC.Hazard.observe hz (graph_at 1)));
  Test_util.check_int "second shape" 0
    (List.length (HC.Hazard.observe hz (graph_at 2)));
  Test_util.check_int "third shape trips" 1
    (List.length (HC.Hazard.observe hz (graph_at 4)));
  Test_util.check_int "reported once" 0
    (List.length (HC.Hazard.observe hz (graph_at 8)));
  Alcotest.(check (list int)) "counts" [ 4 ] (HC.Hazard.skeleton_counts hz)

(* Six programs on one LeNet trace at one batch size: the logits, then five
   different one-op tails. They differ only near the end of a long graph,
   so a skeleton that stops looking after the first nodes would lump them
   together and report a varying dimension where none varies. *)
let test_hazard_compares_whole_skeletons () =
  let engine = S4o_device.Engine.create S4o_device.Device_spec.desktop_cpu in
  let rt = S4o_lazy.Lazy_runtime.create engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let module M = S4o_nn.Models.Make (Bk) in
  let model = M.lenet (Prng.create 1) in
  let input = Bk.placeholder [| 2; 28; 28; 1 |] in
  let logits =
    M.L.D.value (M.L.apply model (M.L.D.new_ctx ()) (M.L.D.const input))
  in
  let hz = HC.Hazard.create () in
  let findings =
    List.concat_map
      (fun tail -> HC.Hazard.observe hz (Bk.capture [ tail logits ]))
      [ Fun.id; Bk.relu; Bk.softmax; Bk.sum_all; Bk.neg; Bk.exp ]
  in
  Test_util.check_int "no hazard" 0 (List.length findings);
  Alcotest.(check (list int)) "one key per skeleton" [ 1; 1; 1; 1; 1; 1 ]
    (HC.Hazard.skeleton_counts hz)

let test_trace_cut_checked () =
  (* A real trace cut is valid, and compiles. *)
  let a = S4o_lazy.Trace.leaf (Dense.of_array [| 2 |] [| 1.0; 2.0 |]) in
  let b = S4o_lazy.Trace.leaf (Dense.of_array [| 2 |] [| 3.0; 4.0 |]) in
  let t = S4o_lazy.Trace.record (C.add [| 2 |] [| 2 |]) [ a; b ] in
  let g, leaves, _ = S4o_lazy.Trace.to_hlo [ t ] in
  Test_util.check_int "two leaves" 2 (List.length leaves);
  Hlo.validate g;
  ignore (S4o_xla.Compiler.compile g);
  Test_util.check_int "cut clean" 0 (List.length (HC.errors (HC.check_graph g)))

let test_report_json_roundtrip () =
  let p0 = Hlo.param ~index:0 ~shape:[| 4 |] in
  let g = Hlo.graph_of_outputs [ Hlo.op (C.relu [| 4 |]) [ p0 ] ] in
  let json =
    HC.report_to_json ~graph_name:"t" g (HC.check_graph g)
    |> S4o_obs.Json.to_string
  in
  match S4o_obs.Json.parse json with
  | Error e -> Alcotest.failf "bad json: %s" e
  | Ok j ->
      Test_util.check_close "nodes" 2.0
        (Option.get (Option.bind (S4o_obs.Json.member "nodes" j) S4o_obs.Json.to_float))

(* {1 Write-race sanitizer} *)

let with_armed f =
  let was = San.armed () in
  San.set_armed true;
  Fun.protect ~finally:(fun () -> San.set_armed was) f

let fresh_buf n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

let test_san_write_write_race () =
  with_armed (fun () ->
      San.job_begin ();
      Fun.protect ~finally:San.job_end (fun () ->
          let buf = fresh_buf 100 in
          San.note_write ~domain:1 buf ~lo:0 ~len:60 ~who:"chunk 0";
          Test_util.check_raises_any "overlap raises" (fun () ->
              San.note_write ~domain:2 buf ~lo:50 ~len:50 ~who:"chunk 1")))

let test_san_write_read_race () =
  with_armed (fun () ->
      San.job_begin ();
      Fun.protect ~finally:San.job_end (fun () ->
          let buf = fresh_buf 100 in
          San.note_read ~domain:1 buf ~lo:0 ~len:100 ~who:"reader";
          Test_util.check_raises_any "write over foreign read raises"
            (fun () ->
              San.note_write ~domain:2 buf ~lo:10 ~len:5 ~who:"writer")))

let test_san_disjoint_and_same_domain_ok () =
  with_armed (fun () ->
      San.job_begin ();
      Fun.protect ~finally:San.job_end (fun () ->
          let buf = fresh_buf 100 in
          San.note_write ~domain:1 buf ~lo:0 ~len:50 ~who:"chunk 0";
          San.note_write ~domain:2 buf ~lo:50 ~len:50 ~who:"chunk 1";
          (* same domain may revisit its own range *)
          San.note_write ~domain:1 buf ~lo:10 ~len:10 ~who:"chunk 0 again";
          (* distinct buffers never conflict *)
          let other = fresh_buf 100 in
          San.note_write ~domain:2 other ~lo:0 ~len:100 ~who:"other buf"))

let test_san_reads_may_overlap () =
  with_armed (fun () ->
      San.job_begin ();
      Fun.protect ~finally:San.job_end (fun () ->
          let buf = fresh_buf 10 in
          San.note_read ~domain:1 buf ~lo:0 ~len:10 ~who:"r1";
          San.note_read ~domain:2 buf ~lo:0 ~len:10 ~who:"r2"))

let test_san_outside_job_dropped () =
  with_armed (fun () ->
      let before = (San.stats ()).San.intervals in
      let buf = fresh_buf 10 in
      San.note_write ~domain:1 buf ~lo:0 ~len:10 ~who:"w1";
      San.note_write ~domain:2 buf ~lo:0 ~len:10 ~who:"w2";
      Test_util.check_int "nothing recorded outside a job" before
        (San.stats ()).San.intervals)

let test_san_disarmed_is_free () =
  San.set_armed false;
  San.job_begin ();
  let buf = fresh_buf 10 in
  San.note_write ~domain:1 buf ~lo:0 ~len:10 ~who:"w1";
  San.note_write ~domain:2 buf ~lo:0 ~len:10 ~who:"w2";
  San.job_end ()

let test_san_race_message_names_both () =
  with_armed (fun () ->
      San.job_begin ();
      Fun.protect ~finally:San.job_end (fun () ->
          let buf = fresh_buf 8 in
          San.note_write ~domain:1 buf ~lo:0 ~len:8 ~who:"left kernel";
          match San.note_write ~domain:2 buf ~lo:4 ~len:4 ~who:"right kernel" with
          | () -> Alcotest.fail "expected Race"
          | exception San.Race msg ->
              let has s =
                let re = Str.regexp_string s in
                match Str.search_forward re msg 0 with
                | _ -> true
                | exception Not_found -> false
              in
              Test_util.check_true "names first site" (has "left kernel");
              Test_util.check_true "names second site" (has "right kernel")))

(* The ISSUE's injected defect: an overlapping row partition handed to the
   pool. With >= 2 domains the overlapping chunks land on distinct domains
   and the sanitizer aborts the job. *)
let test_pool_overlapping_partition_caught () =
  with_armed (fun () ->
      let buf = fresh_buf 64 in
      let overlapping lo hi =
        (* every chunk writes one element too far left: chunk boundaries
           overlap by one *)
        let lo = max 0 (lo - 1) in
        San.note_write buf ~lo ~len:(hi - lo) ~who:"bad partition";
        for i = lo to hi - 1 do
          Bigarray.Array1.set buf i 1.0
        done
      in
      match S4o_tensor.Pool.run ~domains:2 ~n:64 overlapping with
      | () ->
          (* single-domain machines run serially: the job never starts and
             the defect is invisible — that is exactly the bug class the
             sanitizer exists for, so only assert when parallel ran *)
          Test_util.check_true "serial fallback"
            (S4o_tensor.Pool.live_workers () = 0)
      | exception San.Race _ -> ())

let test_pool_disjoint_partition_clean () =
  with_armed (fun () ->
      let buf = fresh_buf 64 in
      let disjoint lo hi =
        San.note_write buf ~lo ~len:(hi - lo) ~who:"good partition";
        for i = lo to hi - 1 do
          Bigarray.Array1.set buf i 1.0
        done
      in
      S4o_tensor.Pool.run ~domains:2 ~n:64 disjoint;
      Test_util.check_close "all written" 64.0
        (let s = ref 0.0 in
         for i = 0 to 63 do
           s := !s +. Bigarray.Array1.get buf i
         done;
         !s))

let test_armed_kernels_clean () =
  (* End-to-end: the shipped parallel kernels run race-free when armed. *)
  with_armed (fun () ->
      let a = Dense.init [| 17; 9 |] (fun _ -> 1.0) in
      let b = Dense.init [| 9; 13 |] (fun _ -> 2.0) in
      let c = Dense.matmul a b in
      Test_util.check_close "matmul value" 18.0 (Dense.get c [| 0; 0 |]);
      let img = Dense.init [| 2; 8; 8; 3 |] (fun _ -> 1.0) in
      let filt = Dense.init [| 3; 3; 3; 4 |] (fun _ -> 1.0) in
      let out = Convolution.conv2d ~padding:Convolution.Valid img filt in
      Test_util.check_close "conv value" 27.0 (Dense.get out [| 0; 0; 0; 0 |]);
      let pooled = Convolution.max_pool2d ~size:(2, 2) ~stride:(2, 2) img in
      Test_util.check_close "pool value" 1.0 (Dense.get pooled [| 0; 0; 0; 0 |]))

let qcheck_sanitizer_matches_ground_truth =
  (* Fuzz: random interval sets across 2-4 simulated domains; the sanitizer
     raises iff two intervals from distinct domains overlap (write-write or
     write-read). *)
  QCheck.Test.make ~count:200 ~name:"sanitizer agrees with ground truth"
    QCheck.(
      list_of_size Gen.(int_range 1 8)
        (quad (int_range 0 3) (int_range 0 40) (int_range 1 12) bool))
    (fun intervals ->
      let truth =
        let arr = Array.of_list intervals in
        let overlaps (_, lo1, len1, _) (_, lo2, len2, _) =
          lo1 < lo2 + len2 && lo2 < lo1 + len1
        in
        let conflict i j =
          let ((d1, _, _, w1) as a) = arr.(i) and ((d2, _, _, w2) as b) = arr.(j) in
          d1 <> d2 && (w1 || w2) && overlaps a b
        in
        let n = Array.length arr in
        let found = ref false in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            if conflict i j then found := true
          done
        done;
        !found
      in
      with_armed (fun () ->
          San.job_begin ();
          Fun.protect ~finally:San.job_end (fun () ->
              let buf = fresh_buf 64 in
              let raised =
                try
                  List.iter
                    (fun (domain, lo, len, write) ->
                      if write then
                        San.note_write ~domain buf ~lo ~len ~who:"fuzz-w"
                      else San.note_read ~domain buf ~lo ~len ~who:"fuzz-r")
                    intervals;
                  false
                with San.Race _ -> true
              in
              QCheck.assume (raised = truth || raised);
              (* the sanitizer may raise on the FIRST conflicting pair it
                 sees in registration order; ground truth is order-free, so
                 raised => truth and truth => raised must both hold *)
              raised = truth)))

(* {1 Pass preservation under the verifier (satellite)} *)

(* Random loop-free MSIL: a straight-line prefix, optionally continued as a
   diamond whose join takes one parameter. *)
let gen_msil_func : Ir.func QCheck.Gen.t =
 fun st ->
  let open QCheck.Gen in
  let n_args = 2 in
  let safe_unaries =
    [| Ir.Neg; Ir.Sin; Ir.Cos; Ir.Exp; Ir.Sqrt; Ir.Relu; Ir.Sigmoid; Ir.Tanh; Ir.Floor |]
  in
  let binaries = [| Ir.Add; Ir.Sub; Ir.Mul; Ir.Div; Ir.Max; Ir.Min |] in
  let cmps = [| Ir.Lt; Ir.Le; Ir.Gt; Ir.Ge; Ir.Eq |] in
  let gen_inst defined st =
    let operand st = int_range 0 (defined - 1) st in
    match int_range 0 4 st with
    | 0 -> Ir.Const (float_range (-3.0) 3.0 st)
    | 1 -> Ir.Unary (safe_unaries.(int_range 0 (Array.length safe_unaries - 1) st), operand st)
    | 2 -> Ir.Binary (binaries.(int_range 0 (Array.length binaries - 1) st), operand st, operand st)
    | 3 -> Ir.Cmp (cmps.(int_range 0 (Array.length cmps - 1) st), operand st, operand st)
    | _ -> Ir.Select (operand st, operand st, operand st)
  in
  let gen_block base lo hi st =
    let n = int_range lo hi st in
    Array.init n (fun i -> gen_inst (base + i) st)
  in
  let entry_insts = gen_block n_args 1 7 st in
  let entry_defined = n_args + Array.length entry_insts in
  let pick st = int_range 0 (entry_defined - 1) st in
  if bool st then
    {
      Ir.name = "rand_line";
      n_args;
      blocks =
        [|
          {
            Ir.params = n_args;
            insts = entry_insts;
            term = Ir.Ret (entry_defined - 1);
          };
        |];
    }
  else
    let cond = pick st in
    let arg_t = pick st and arg_f = pick st in
    let bt_insts = gen_block 1 1 3 st in
    let bf_insts = gen_block 1 1 3 st in
    {
      Ir.name = "rand_diamond";
      n_args;
      blocks =
        [|
          {
            Ir.params = n_args;
            insts = entry_insts;
            term = Ir.Cond_br (cond, 1, [| arg_t |], 2, [| arg_f |]);
          };
          {
            Ir.params = 1;
            insts = bt_insts;
            term = Ir.Br (3, [| Array.length bt_insts |]);
          };
          {
            Ir.params = 1;
            insts = bf_insts;
            term = Ir.Br (3, [| Array.length bf_insts |]);
          };
          { Ir.params = 1; insts = [||]; term = Ir.Ret 0 };
        |];
    }

let arb_msil =
  QCheck.make gen_msil_func ~print:(fun f -> Ir.to_string f)

let same_float a b = (Float.is_nan a && Float.is_nan b) || Float.equal a b

let qcheck_passes_preserve_and_verify =
  QCheck.Test.make ~count:300
    ~name:"passes preserve semantics and verify clean"
    QCheck.(pair arb_msil (pair (float_range (-2.0) 2.0) (float_range (-2.0) 2.0)))
    (fun (f, (x, y)) ->
      Ir.validate f;
      let m = Interp.create_module () in
      Interp.add m f;
      let reference = Interp.eval m f [| x; y |] in
      List.for_all
        (fun (name, pass) ->
          let f' = pass f in
          let m' = Interp.create_module () in
          Interp.add m' f';
          let v = Interp.eval m' f' [| x; y |] in
          if not (same_float reference v) then
            QCheck.Test.fail_reportf "%s changed %g to %g on@.%s" name
              reference v (Ir.to_string f)
          else if V.errors (V.func f') <> [] then
            QCheck.Test.fail_reportf "%s broke the verifier on@.%s" name
              (Ir.to_string f')
          else true)
        [
          ("constant_fold", Passes.constant_fold);
          ("dead_code_elim", Passes.dead_code_elim);
          ("simplify", Passes.simplify);
        ])

(* [dead_code_elim] is block-local: terminator uses — including branch
   arguments — keep a value alive even when the target parameter is dead
   inter-block. Its guarantee is therefore local density, which is what we
   assert here; {!D.Liveness} may still see further (inter-block) slack. *)
let locally_dead (f : Ir.func) =
  Array.exists
    (fun b ->
      let total = Ir.block_values b in
      let used = Array.make total false in
      let mark v = used.(v) <- true in
      (match b.Ir.term with
      | Ir.Ret v -> mark v
      | Ir.Br (_, args) -> Array.iter mark args
      | Ir.Cond_br (c, _, at, _, af) ->
          mark c;
          Array.iter mark at;
          Array.iter mark af);
      for ii = Array.length b.Ir.insts - 1 downto 0 do
        if used.(b.Ir.params + ii) then
          List.iter mark (Ir.inst_operands b.Ir.insts.(ii))
      done;
      Array.exists not (Array.sub used b.Ir.params (Array.length b.Ir.insts)))
    f.Ir.blocks

let qcheck_dce_restores_density =
  QCheck.Test.make ~count:200 ~name:"dce output has no dead values"
    arb_msil
    (fun f ->
      Ir.validate f;
      not (locally_dead (Passes.dead_code_elim f)))

(* {1 Shared mechanisms on random MSIL} *)

(* At most one structural corruption: an operand, a branch target, a branch
   argument or a returned value becomes a random value or block number,
   which may still be valid. Retargeting a [ret] turns it into a branch, so
   loops through instruction-free blocks occur. *)
let corrupt (f : Ir.func) st =
  let open QCheck.Gen in
  let blocks = Array.copy f.Ir.blocks in
  let bi = int_range 0 (Array.length blocks - 1) st in
  let b = blocks.(bi) in
  let value st = int_range (-1) (Ir.block_values b) st in
  let target st = int_range (-1) (Array.length blocks) st in
  let set_one args st =
    let args = Array.copy args in
    if Array.length args > 0 then
      args.(int_range 0 (Array.length args - 1) st) <- value st;
    args
  in
  let term st =
    match (int_range 0 2 st, b.Ir.term) with
    | 0, Ir.Ret v -> Ir.Br (target st, [| v |])
    | 0, Ir.Br (_, args) -> Ir.Br (target st, args)
    | 0, Ir.Cond_br (c, _, at, bf, af) -> Ir.Cond_br (c, target st, at, bf, af)
    | 1, Ir.Br (t, args) -> Ir.Br (t, set_one args st)
    | 1, Ir.Cond_br (c, bt, at, bf, af) -> Ir.Cond_br (c, bt, set_one at st, bf, af)
    | _, Ir.Ret _ -> Ir.Ret (value st)
    | _, t -> t
  in
  (match int_range 0 2 st with
  | 0 -> ()
  | 1 when Array.length b.Ir.insts > 0 ->
      let insts = Array.copy b.Ir.insts in
      insts.(int_range 0 (Array.length insts - 1) st) <- Ir.Unary (Ir.Neg, value st);
      blocks.(bi) <- { b with Ir.insts }
  | _ -> blocks.(bi) <- { b with Ir.term = term st });
  { f with Ir.blocks }

let qcheck_validate_agrees_with_verifier =
  QCheck.Test.make ~count:500
    ~name:"validate accepts what the verifier passes, and it runs"
    (QCheck.make QCheck.Gen.(gen_msil_func >>= corrupt) ~print:Ir.to_string)
    (fun f ->
      let accepted =
        match Ir.validate f with () -> true | exception Ir.Invalid_ir _ -> false
      in
      if accepted <> (V.errors (V.func f) = []) then
        QCheck.Test.fail_reportf "validate %s but the verifier disagrees"
          (if accepted then "accepts" else "rejects")
      else if accepted then begin
        let m = Interp.create_module () in
        Interp.add m f;
        match Interp.eval ~fuel:10_000 m f [| 0.5; -1.5 |] with
        | _ | (exception Interp.Runtime_error _) -> true
      end
      else true)

(* {1 HLO validation on random catalog graphs} *)

(* A random catalog graph over three parameters, with at most one
   corruption applied to a node as it is made, so its consumers are built
   on what it declares: its shape, its parameter index or its operand count
   changes. The new value may still be valid. *)
let build_hlo (steps, (target, kind, v)) =
  let nodes = ref [] in
  let made = ref 0 in
  let add (n : Hlo.node) =
    let n =
      if !made <> target then n
      else
        match (kind, n.role, n.inputs) with
        | 0, _, _ ->
            let shapes = [| [| 2; 3 |]; [| 3; 2 |]; [| 6 |]; [||] |] in
            { n with shape = shapes.(v mod Array.length shapes) }
        | 1, Hlo.Param _, _ -> { n with role = Hlo.Param ((v mod 4) - 1) }
        | _, Hlo.Compute _, i :: rest ->
            { n with inputs = (if v mod 2 = 0 then rest else i :: i :: rest) }
        | _ -> n
    in
    incr made;
    nodes := n :: !nodes;
    n
  in
  List.iteri
    (fun i shape -> ignore (add (Hlo.param ~index:i ~shape)))
    [ [| 2; 3 |]; [| 2; 3 |]; [| 3; 2 |] ];
  let pick sel ok =
    let fits = List.filter (fun (n : Hlo.node) -> ok n.shape) !nodes in
    List.nth fits (sel mod List.length fits)
  in
  List.iter
    (fun (code, s1, s2) ->
      let a = pick s1 (fun _ -> true) in
      let sa = a.shape in
      let rank = Shape.rank sa in
      let op o inputs = ignore (add (Hlo.op o inputs)) in
      (* A step with no fitting operand, or whose shapes its op rejects, is
         skipped. *)
      try
        match code with
        | 0 -> op (C.add sa sa) [ a; pick s2 (Shape.equal sa) ]
        | 1 -> op (C.relu sa) [ a ]
        | 2 -> op (C.scale 0.5 sa) [ a ]
        | 3 when rank = 2 -> op (C.transpose sa) [ a ]
        | 4 when rank = 2 ->
            let b = pick s2 (fun sb -> Shape.rank sb = 2 && sb.(0) = sa.(1)) in
            op (C.matmul sa b.shape) [ a; b ]
        | 5 when rank >= 1 -> op (C.sum_axes sa [ 0 ]) [ a ]
        | 6 -> op (C.reshape sa [| Shape.numel sa |]) [ a ]
        | _ -> op (C.sum_all sa) [ a ]
      with Shape.Shape_error _ | Invalid_argument _ | Division_by_zero -> ())
    steps;
  Hlo.graph_of_outputs (List.filteri (fun i _ -> i < 2) !nodes)

let arb_hlo =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun g -> Hlo.to_string g)
    (map build_hlo
       (pair
          (list_size (int_range 1 8) (triple (int_bound 7) (int_bound 100) (int_bound 100)))
          (triple (int_bound 12) (int_bound 2) (int_bound 100))))

let qcheck_hlo_validate_agrees_with_checker =
  QCheck.Test.make ~count:500
    ~name:"HLO validate accepts what the checker passes, and it runs"
    arb_hlo
    (fun g ->
      let accepted =
        match Hlo.validate g with () -> true | exception Hlo.Invalid_hlo _ -> false
      in
      if accepted <> (HC.errors (HC.check_graph g) = []) then
        QCheck.Test.fail_reportf "validate %s but the checker disagrees"
          (if accepted then "accepts" else "rejects")
      else if accepted then begin
        (* The executor binds parameters by index, gaps included. *)
        let params = Hlo.params g in
        let feeds = Array.make (List.length params + 4) (Dense.scalar 0.0) in
        List.iter
          (fun (p : Hlo.node) ->
            match p.role with
            | Hlo.Param i -> feeds.(i) <- Dense.ones p.shape
            | Hlo.Compute _ | Hlo.Literal _ -> ())
          params;
        let engine = S4o_device.Engine.create S4o_device.Device_spec.desktop_cpu in
        ignore (S4o_xla.Compiler.run (S4o_xla.Compiler.compile g) engine feeds);
        true
      end
      else true)

(* Why [Opt] validates only after constant folding: CSE and DCE never make
   a valid graph invalid. *)
let qcheck_cse_dce_keep_graphs_valid =
  QCheck.Test.make ~count:500 ~name:"cse and dead_code_elim keep a graph valid"
    arb_hlo
    (fun g ->
      QCheck.assume (Hlo.violations g = []);
      let open S4o_xla.Opt in
      List.for_all
        (fun g' -> Hlo.violations g' = [])
        [ cse g; dead_code_elim g; dead_code_elim (cse g) ])

(* Differentiates through [Activity]'s active mask (the runtime transform
   skips inactive instructions) and checks it against generated VJP code,
   which has no mask. *)
let qcheck_transform_matches_vjp_codegen =
  QCheck.Test.make ~count:300
    ~name:"runtime gradient equals generated VJP gradient"
    QCheck.(pair arb_msil (pair (float_range (-2.0) 2.0) (float_range (-2.0) 2.0)))
    (fun (f, (x, y)) ->
      QCheck.assume (Array.length f.Ir.blocks = 1);
      let m = Interp.create_module () in
      Interp.add m f;
      let at = [| x; y |] in
      let runtime = Transform.gradient (Transform.create_ctx m) f.Ir.name at in
      let generated = Codegen.gradient_via_vjp_codegen m f at in
      (* The generated VJP multiplies zero adjoints by NaN partials (say, of
         a sqrt of a negative value on the untaken side of a max); the
         runtime transform skips zero adjoints. *)
      QCheck.assume
        (Array.for_all Float.is_finite runtime
        && Array.for_all Float.is_finite generated);
      let close a b =
        Float.abs (a -. b)
        <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))
      in
      Array.for_all2 close runtime generated
      || QCheck.Test.fail_reportf "runtime [%g; %g], generated [%g; %g]"
           runtime.(0) runtime.(1) generated.(0) generated.(1))

let tc = Alcotest.test_case
let q = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "analysis.dataflow",
      [
        tc "liveness finds dead inst" `Quick test_liveness_dead_inst;
        tc "liveness through branches" `Quick test_liveness_through_branches;
        tc "reaching redundant params" `Quick test_reaching_redundant_params;
        tc "reaching join merges" `Quick test_reaching_join_merges;
        tc "const-prop constant branch" `Quick test_const_prop_constant_branch;
        tc "const-prop through join" `Quick test_const_prop_through_join;
      ] );
    ( "analysis.verify",
      [
        tc "clean on good IR" `Quick test_verifier_clean_on_good_ir;
        tc "use before def" `Quick test_verifier_use_before_def;
        tc "branch arity" `Quick test_verifier_branch_arity;
        tc "missing target" `Quick test_verifier_missing_target;
        tc "density lint" `Quick test_verifier_density_lint;
        tc "unreachable block" `Quick test_verifier_unreachable_block;
        q qcheck_passes_preserve_and_verify;
        q qcheck_dce_restores_density;
        q qcheck_validate_agrees_with_verifier;
        q qcheck_transform_matches_vjp_codegen;
      ] );
    ( "analysis.checked",
      [
        tc "catches corrupt IR" `Quick test_producers_catch_corrupt_ir;
        tc "catches corrupt HLO" `Quick test_producers_catch_corrupt_hlo;
      ] );
    ( "analysis.hlo",
      [
        tc "clean catalog graph" `Quick test_hlo_clean_catalog_graph;
        tc "shape mismatch" `Quick test_hlo_shape_mismatch;
        tc "arity error" `Quick test_hlo_arity_error;
        tc "conv backward consistency" `Quick test_hlo_conv_backward_consistency;
        tc "duplicate literal lint" `Quick test_hlo_duplicate_literal_lint;
        tc "dead node lint" `Quick test_hlo_dead_node_lint;
        tc "param density" `Quick test_hlo_param_density;
        tc "pending limit" `Quick test_hlo_pending_limit;
        tc "recompile hazard" `Quick test_hazard_detector;
        tc "hazard whole skeletons" `Quick test_hazard_compares_whole_skeletons;
        tc "trace cut checked" `Quick test_trace_cut_checked;
        q qcheck_hlo_validate_agrees_with_checker;
        q qcheck_cse_dce_keep_graphs_valid;
        tc "report json" `Quick test_report_json_roundtrip;
      ] );
    ( "analysis.sanitizer",
      [
        tc "write-write race" `Quick test_san_write_write_race;
        tc "write-read race" `Quick test_san_write_read_race;
        tc "disjoint ok" `Quick test_san_disjoint_and_same_domain_ok;
        tc "reads overlap ok" `Quick test_san_reads_may_overlap;
        tc "outside job dropped" `Quick test_san_outside_job_dropped;
        tc "disarmed free" `Quick test_san_disarmed_is_free;
        tc "race names both sites" `Quick test_san_race_message_names_both;
        tc "pool overlapping partition" `Quick test_pool_overlapping_partition_caught;
        tc "pool disjoint partition" `Quick test_pool_disjoint_partition_clean;
        tc "armed kernels clean" `Quick test_armed_kernels_clean;
        q qcheck_sanitizer_matches_ground_truth;
      ] );
  ]
