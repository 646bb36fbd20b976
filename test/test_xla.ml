(** Tests for the XLA-style compiler: the HLO graph IR, trace fingerprints
    (the program-cache key of §3.4), optimization passes, fusion (§3.3), and
    compiled execution against direct evaluation. *)

open S4o_tensor
module Hlo = S4o_xla.Hlo
module Opt = S4o_xla.Opt
module Compiler = S4o_xla.Compiler
module C = S4o_ops.Catalog

(* A small graph: (p0 + p1) * relu(p0 + p1), with the add shared. *)
let build_shared_graph () =
  let p0 = Hlo.param ~index:0 ~shape:[| 4 |] in
  let p1 = Hlo.param ~index:1 ~shape:[| 4 |] in
  let sum = Hlo.op (C.add [| 4 |] [| 4 |]) [ p0; p1 ] in
  let r = Hlo.op (C.relu [| 4 |]) [ sum ] in
  let out = Hlo.op (C.mul [| 4 |] [| 4 |]) [ sum; r ] in
  Hlo.graph_of_outputs [ out ]

(* {1 Graph structure} *)

let test_topo_order () =
  let g = build_shared_graph () in
  Test_util.check_int "node count" 5 (Hlo.size g);
  (* every node appears after its inputs *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (n : Hlo.node) ->
      List.iter
        (fun (i : Hlo.node) ->
          Test_util.check_true "input before use" (Hashtbl.mem seen i.Hlo.id))
        n.Hlo.inputs;
      Hashtbl.add seen n.Hlo.id ())
    g.Hlo.nodes

let test_params_ordered () =
  let g = build_shared_graph () in
  let ps = Hlo.params g in
  Test_util.check_int "two params" 2 (List.length ps)

let test_fingerprint_id_invariant () =
  (* the same structure built twice (fresh node ids) fingerprints equal *)
  let fp1 = Hlo.fingerprint (build_shared_graph ()) in
  let fp2 = Hlo.fingerprint (build_shared_graph ()) in
  Test_util.check_int "structure-only fingerprint" fp1 fp2

let test_fingerprint_sensitive_to_attrs () =
  let build c =
    let p = Hlo.param ~index:0 ~shape:[| 4 |] in
    Hlo.graph_of_outputs [ Hlo.op (C.scale c [| 4 |]) [ p ] ]
  in
  Test_util.check_true "different constant, different fingerprint"
    (Hlo.fingerprint (build 1.0) <> Hlo.fingerprint (build 2.0));
  (* Constants that agree to six digits, or only in the sign of zero, are
     different programs. *)
  let distinct c c' = not (Hlo.equal_key (Hlo.key (build c)) (Hlo.key (build c'))) in
  Test_util.check_true "near-equal constants, different keys" (distinct 1.0000001 1.0000004);
  Test_util.check_true "0.0 and -0.0, different keys" (distinct 0.0 (-0.0));
  Test_util.check_true "same constant, equal keys" (not (distinct 1.5 1.5));
  (* CSE keeps both scales of one input. *)
  let p = Hlo.param ~index:0 ~shape:[| 4 |] in
  let s1 = Hlo.op (C.scale 1.0000001 [| 4 |]) [ p ] in
  let s2 = Hlo.op (C.scale 1.0000004 [| 4 |]) [ p ] in
  let g, _ = Opt.optimize (Hlo.graph_of_outputs [ Hlo.op (C.add [| 4 |] [| 4 |]) [ s1; s2 ] ]) in
  Test_util.check_int "both scales survive optimize" 4 (Hlo.size g)

let test_fingerprint_sensitive_to_shape () =
  let build n =
    let p = Hlo.param ~index:0 ~shape:[| n |] in
    Hlo.graph_of_outputs [ Hlo.op (C.relu [| n |]) [ p ] ]
  in
  Test_util.check_true "shape change recompiles (S3.4)"
    (Hlo.fingerprint (build 4) <> Hlo.fingerprint (build 8))

let test_dot_rendering () =
  let g = build_shared_graph () in
  let dot = Hlo.to_dot g in
  Test_util.check_true "digraph header" (String.length dot > 10);
  Test_util.check_true "has edges"
    (String.split_on_char '\n' dot
    |> List.exists (fun l -> String.length l > 4 && String.contains l '>'))

(* {1 Passes} *)

let test_cse_merges_duplicates () =
  let p0 = Hlo.param ~index:0 ~shape:[| 4 |] in
  let a1 = Hlo.op (C.relu [| 4 |]) [ p0 ] in
  let a2 = Hlo.op (C.relu [| 4 |]) [ p0 ] in
  let out = Hlo.op (C.add [| 4 |] [| 4 |]) [ a1; a2 ] in
  let g = Hlo.graph_of_outputs [ out ] in
  Test_util.check_int "before" 4 (Hlo.size g);
  let g' = Opt.cse g in
  Test_util.check_int "after cse" 3 (Hlo.size g')

(* [exp (neg b)] sits two levels above the merge of [b] into [a]: CSE must
   rewire it too, or the stale [b] survives. *)
let test_cse_merges_below_a_chain () =
  let x = Hlo.param ~index:0 ~shape:[| 4 |] and y = Hlo.param ~index:1 ~shape:[| 4 |] in
  let a = Hlo.op (C.add [| 4 |] [| 4 |]) [ x; y ] in
  let b = Hlo.op (C.add [| 4 |] [| 4 |]) [ x; y ] in
  let e = Hlo.op (C.exp [| 4 |]) [ Hlo.op (C.neg [| 4 |]) [ b ] ] in
  let g = Hlo.graph_of_outputs [ a; e ] in
  Test_util.check_int "before" 6 (Hlo.size g);
  let g', _ = Opt.optimize g in
  Test_util.check_int "after optimize" 5 (Hlo.size g');
  let xv = Dense.of_array [| 4 |] [| 1.; -2.; 3.; -4. |] in
  let yv = Dense.of_array [| 4 |] [| 0.5; 0.5; -9.0; 5.0 |] in
  let engine = S4o_device.Engine.create S4o_device.Device_spec.desktop_cpu in
  let out = Compiler.run (Compiler.compile g') engine [| xv; yv |] in
  let s = Dense.add xv yv in
  Test_util.check_true "optimized = definition"
    (Dense.bit_equal s out.(0) && Dense.bit_equal (Dense.exp (Dense.neg s)) out.(1))

let test_constant_folding () =
  let l1 = Hlo.literal (Dense.of_array [| 2 |] [| 1.0; 2.0 |]) in
  let l2 = Hlo.literal (Dense.of_array [| 2 |] [| 10.0; 20.0 |]) in
  let s = Hlo.op (C.add [| 2 |] [| 2 |]) [ l1; l2 ] in
  let p = Hlo.param ~index:0 ~shape:[| 2 |] in
  let out = Hlo.op (C.mul [| 2 |] [| 2 |]) [ s; p ] in
  let g = Opt.constant_fold (Hlo.graph_of_outputs [ out ]) in
  let folded =
    List.exists
      (fun (n : Hlo.node) ->
        match n.Hlo.role with
        | Hlo.Literal v -> Dense.equal v (Dense.of_array [| 2 |] [| 11.0; 22.0 |])
        | _ -> false)
      g.Hlo.nodes
  in
  Test_util.check_true "sum folded to literal" folded

let test_optimize_preserves_semantics () =
  let g = build_shared_graph () in
  let g', _stats = Opt.optimize g in
  let engine = S4o_device.Engine.create S4o_device.Device_spec.desktop_cpu in
  let feeds = [| Dense.of_array [| 4 |] [| 1.; -2.; 3.; -4. |];
                 Dense.of_array [| 4 |] [| 0.5; 0.5; -9.0; 5.0 |] |] in
  let run g = (Compiler.run (Compiler.compile g) engine feeds).(0) in
  Test_util.check_tensor "optimized = original" (run g) (run g')

(* {1 Fusion} *)

let test_fusion_chains () =
  (* conv -> add-bias -> relu should be one cluster *)
  let x = Hlo.param ~index:0 ~shape:[| 1; 8; 8; 3 |] in
  let f = Hlo.param ~index:1 ~shape:[| 3; 3; 3; 4 |] in
  let b = Hlo.param ~index:2 ~shape:[| 4 |] in
  let conv =
    Hlo.op
      (C.conv2d ~stride:(1, 1) ~padding:Convolution.Same [| 1; 8; 8; 3 |]
         [| 3; 3; 3; 4 |])
      [ x; f ]
  in
  let biased = Hlo.op (C.add [| 1; 8; 8; 4 |] [| 4 |]) [ conv; b ] in
  let act = Hlo.op (C.relu [| 1; 8; 8; 4 |]) [ biased ] in
  let g = Hlo.graph_of_outputs [ act ] in
  let clusters = Opt.fuse g in
  Test_util.check_int "single fused kernel" 1 (List.length clusters);
  match clusters with
  | [ c ] ->
      Test_util.check_int "three members" 3 (List.length c.Opt.members);
      Test_util.check_true "fused kind"
        (match c.Opt.info.S4o_device.Op_info.kind with
        | S4o_device.Op_info.Fused 3 -> true
        | _ -> false)
  | _ -> Alcotest.fail "expected one cluster"

let test_fusion_two_contractions_not_merged () =
  let x = Hlo.param ~index:0 ~shape:[| 4; 4 |] in
  let w1 = Hlo.param ~index:1 ~shape:[| 4; 4 |] in
  let w2 = Hlo.param ~index:2 ~shape:[| 4; 4 |] in
  let m1 = Hlo.op (C.matmul [| 4; 4 |] [| 4; 4 |]) [ x; w1 ] in
  let m2 = Hlo.op (C.matmul [| 4; 4 |] [| 4; 4 |]) [ m1; w2 ] in
  let g = Hlo.graph_of_outputs [ m2 ] in
  Test_util.check_int "two clusters" 2 (List.length (Opt.fuse g))

let test_fusion_saves_memory_traffic () =
  let x = Hlo.param ~index:0 ~shape:[| 1024 |] in
  let a = Hlo.op (C.relu [| 1024 |]) [ x ] in
  let b = Hlo.op (C.exp [| 1024 |]) [ a ] in
  let c = Hlo.op (C.sqrt [| 1024 |]) [ b ] in
  let g = Hlo.graph_of_outputs [ c ] in
  let clusters = Opt.fuse g in
  Test_util.check_int "one cluster" 1 (List.length clusters);
  let info = (List.hd clusters).Opt.info in
  (* external traffic: read x once, write c once — intermediates free *)
  Test_util.check_int "external in" 4096 info.S4o_device.Op_info.bytes_in;
  Test_util.check_int "external out" 4096 info.S4o_device.Op_info.bytes_out

let test_fusion_partitions_compute_nodes () =
  (* Regression: the clusters must partition exactly the compute nodes —
     every compute node in precisely one cluster, no duplicates, and no
     params or literals smuggled in. *)
  let check_partition g =
    let clusters = Opt.fuse g in
    let member_ids =
      List.concat_map
        (fun c -> List.map (fun n -> n.Hlo.id) c.Opt.members)
        clusters
    in
    let sorted = List.sort_uniq compare member_ids in
    Test_util.check_int "no duplicate members" (List.length member_ids)
      (List.length sorted);
    let compute_ids =
      List.filter_map
        (fun n ->
          match n.Hlo.role with
          | Hlo.Compute _ -> Some n.Hlo.id
          | Hlo.Param _ | Hlo.Literal _ -> None)
        g.Hlo.nodes
      |> List.sort compare
    in
    Alcotest.(check (list int)) "members = compute nodes" compute_ids sorted
  in
  check_partition (build_shared_graph ());
  (* residual diamond with a literal in the mix *)
  let x = Hlo.param ~index:0 ~shape:[| 2; 2 |] in
  let w = Hlo.param ~index:1 ~shape:[| 2; 2 |] in
  let lit = Hlo.literal (Dense.ones [| 2; 2 |]) in
  let m = Hlo.op (C.matmul [| 2; 2 |] [| 2; 2 |]) [ x; w ] in
  let r = Hlo.op (C.relu [| 2; 2 |]) [ m ] in
  let skip = Hlo.op (C.add [| 2; 2 |] [| 2; 2 |]) [ x; lit ] in
  let out = Hlo.op (C.add [| 2; 2 |] [| 2; 2 |]) [ r; skip ] in
  check_partition (Hlo.graph_of_outputs [ out ]);
  (* contraction-heavy chain *)
  let m1 = Hlo.op (C.matmul [| 2; 2 |] [| 2; 2 |]) [ x; w ] in
  let m2 = Hlo.op (C.matmul [| 2; 2 |] [| 2; 2 |]) [ m1; w ] in
  check_partition (Hlo.graph_of_outputs [ m2 ])

let test_fusion_schedulable_in_order () =
  (* the residual diamond: relu(bn(conv(x))) + shortcut(x); execution in
     cluster order must produce correct values (acyclicity regression test) *)
  let x = Hlo.param ~index:0 ~shape:[| 2; 2 |] in
  let w = Hlo.param ~index:1 ~shape:[| 2; 2 |] in
  let m = Hlo.op (C.matmul [| 2; 2 |] [| 2; 2 |]) [ x; w ] in
  let r = Hlo.op (C.relu [| 2; 2 |]) [ m ] in
  let skip = Hlo.op (C.scale 2.0 [| 2; 2 |]) [ x ] in
  let out = Hlo.op (C.add [| 2; 2 |] [| 2; 2 |]) [ r; skip ] in
  let g = Hlo.graph_of_outputs [ out ] in
  let engine = S4o_device.Engine.create S4o_device.Device_spec.desktop_cpu in
  let xs = Dense.of_array [| 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  let ws = Dense.of_array [| 2; 2 |] [| 1.; 0.; 0.; 1. |] in
  let result = (Compiler.run (Compiler.compile g) engine [| xs; ws |]).(0) in
  Test_util.check_tensor "relu(x) + 2x"
    (Dense.add (Dense.relu xs) (Dense.scale 2.0 xs))
    result

(* {1 Compilation and execution} *)

let test_compile_stats_and_cost () =
  let engine = S4o_device.Engine.create S4o_device.Device_spec.desktop_cpu in
  let g = build_shared_graph () in
  let before = S4o_device.Engine.host_time engine in
  let exe = Compiler.compile ~engine g in
  let stats = Compiler.stats exe in
  Test_util.check_int "input nodes" 5 stats.Compiler.input_nodes;
  Test_util.check_true "compile charged to host"
    (S4o_device.Engine.host_time engine > before);
  Test_util.check_close "compile seconds consistent"
    (S4o_device.Engine.host_time engine -. before)
    stats.Compiler.compile_seconds

let test_run_matches_direct_eval () =
  let g = build_shared_graph () in
  let exe = Compiler.compile g in
  let engine = S4o_device.Engine.create S4o_device.Device_spec.desktop_cpu in
  let a = Dense.of_array [| 4 |] [| 1.; -2.; 3.; -4. |] in
  let b = Dense.of_array [| 4 |] [| 0.5; 1.5; -1.0; 6.0 |] in
  let out = (Compiler.run exe engine [| a; b |]).(0) in
  let sum = Dense.add a b in
  Test_util.check_tensor "compiled = direct" (Dense.mul sum (Dense.relu sum)) out

let test_run_dispatches_kernels () =
  let g = build_shared_graph () in
  let exe = Compiler.compile g in
  let engine = S4o_device.Engine.create S4o_device.Device_spec.desktop_cpu in
  let _ = Compiler.run exe engine [| Dense.zeros [| 4 |]; Dense.zeros [| 4 |] |] in
  Test_util.check_true "kernels launched" (S4o_device.Engine.kernels_launched engine > 0)

let test_simulate_only_advances_clock () =
  let g = build_shared_graph () in
  let exe = Compiler.compile g in
  let engine = S4o_device.Engine.create S4o_device.Device_spec.desktop_cpu in
  Compiler.simulate exe engine;
  Test_util.check_true "device time advanced"
    (S4o_device.Engine.device_ready_at engine > 0.0)

let test_estimated_run_time_positive () =
  let exe = Compiler.compile (build_shared_graph ()) in
  Test_util.check_true "positive estimate"
    (Compiler.estimated_run_time S4o_device.Device_spec.gtx1080 exe > 0.0)

let test_feed_arity_checked () =
  let exe = Compiler.compile (build_shared_graph ()) in
  let engine = S4o_device.Engine.create S4o_device.Device_spec.desktop_cpu in
  Test_util.check_raises_any "missing feeds" (fun () ->
      Compiler.run exe engine [| Dense.zeros [| 4 |] |])

(* {1 Release plan} *)

let test_release_plan () =
  (* conv -> BatchNorm (batch statistics) -> relu: every value is released
     once, after its last consumer, and the bytes released are every
     intermediate except the output *)
  let s = [| 2; 4; 4; 4 |] and axes = [ 0; 1; 2 ] in
  let x = Hlo.param ~index:0 ~shape:[| 2; 4; 4; 3 |] in
  let f = Hlo.param ~index:1 ~shape:[| 3; 3; 3; 4 |] in
  let conv =
    Hlo.op
      (C.conv2d ~stride:(1, 1) ~padding:Convolution.Same [| 2; 4; 4; 3 |]
         [| 3; 3; 3; 4 |])
      [ x; f ]
  in
  let mean_of t = Hlo.op (C.scale (1.0 /. 32.0) [| 4 |]) [ Hlo.op (C.sum_axes s axes) [ t ] ] in
  let centered = Hlo.op (C.sub s [| 4 |]) [ conv; mean_of conv ] in
  let var = mean_of (Hlo.op (C.mul s s) [ centered; centered ]) in
  let std = Hlo.op (C.sqrt [| 4 |]) [ Hlo.op (C.add_scalar 1e-5 [| 4 |]) [ var ] ] in
  let out = Hlo.op (C.relu s) [ Hlo.op (C.div s [| 4 |]) [ centered; std ] ] in
  let exe = Compiler.compile (Hlo.graph_of_outputs [ out ]) in
  let steps = Compiler.plan exe in
  let bytes (st : Compiler.step) = S4o_device.Op_info.bytes_of_shape st.node.Hlo.shape in
  let is_compute (st : Compiler.step) =
    match st.node.Hlo.role with Hlo.Compute _ -> true | _ -> false
  in
  let released_at = Array.make (Array.length steps) [] in
  Array.iteri
    (fun k (st : Compiler.step) ->
      Array.iter (fun j -> released_at.(j) <- k :: released_at.(j)) st.release)
    steps;
  Array.iteri
    (fun k (st : Compiler.step) ->
      Array.iter
        (fun j ->
          Test_util.check_true "operand computed earlier" (j < k);
          Test_util.check_true "released after its last consumer"
            (List.for_all (fun r -> r >= k) released_at.(j)))
        st.operands;
      let expected = if st.node.Hlo.id = out.Hlo.id then 0 else 1 in
      Test_util.check_int "released once, outputs never" expected
        (List.length released_at.(k)))
    steps;
  let computed = ref 0 and released = ref 0 in
  Array.iter
    (fun (st : Compiler.step) ->
      if is_compute st then computed := !computed + bytes st;
      Array.iter
        (fun j -> if is_compute steps.(j) then released := !released + bytes steps.(j))
        st.release)
    steps;
  let out_bytes = S4o_device.Op_info.bytes_of_shape s in
  Test_util.check_int "released bytes = intermediates" (!computed - out_bytes) !released

(* {1 Planned buffers inside [run]} *)

(* Node-by-node evaluation with every buffer fresh: no plan, no slab. *)
let eval_direct (g : Hlo.graph) feeds =
  let values = Hashtbl.create 16 in
  List.iter
    (fun (node : Hlo.node) ->
      let v =
        match node.Hlo.role with
        | Hlo.Param i -> feeds.(i)
        | Hlo.Literal v -> v
        | Hlo.Compute o ->
            o.kernel
              (Array.of_list
                 (List.map (fun (i : Hlo.node) -> Hashtbl.find values i.Hlo.id) node.Hlo.inputs))
      in
      Hashtbl.replace values node.Hlo.id v)
    g.Hlo.nodes;
  List.map (fun (o : Hlo.node) -> Hashtbl.find values o.Hlo.id) g.Hlo.outputs

let new_engine () = S4o_device.Engine.create S4o_device.Device_spec.desktop_cpu

let check_bits name expected actual =
  Test_util.check_int (name ^ ": output count") (List.length expected) (Array.length actual);
  List.iteri
    (fun i e ->
      Test_util.check_true (Printf.sprintf "%s: output %d bit-identical" name i)
        (Dense.bit_equal e actual.(i)))
    expected

(* Runs [g] on a fresh compile and checks it against direct evaluation. *)
let check_run name g feeds =
  check_bits name (eval_direct g feeds) (Compiler.run (Compiler.compile g) (new_engine ()) feeds)

let sh = [| 3; 4 |]
let param i = Hlo.param ~index:i ~shape:sh
let feeds seed = Array.init 2 (fun i -> Dense.rand_normal (Prng.create ((10 * seed) + i)) sh)

(* (a) An output that is [unbroadcast] of an intermediate to its own shape,
   which returns the intermediate: [Opt] makes the intermediate the output,
   so the same-size nodes after it must not be handed its storage. *)
let aliased_output_graph () =
  let x = param 0 and y = param 1 in
  let s = Hlo.op (C.add sh sh) [ x; y ] in
  let u = Hlo.op (C.unbroadcast sh sh) [ s ] in
  let t = Hlo.op (C.relu sh) [ Hlo.op (C.neg sh) [ Hlo.op (C.mul sh sh) [ u; y ] ] ] in
  Hlo.graph_of_outputs [ u; Hlo.op (C.sub sh sh) [ t; x ] ]

(* (b) An output that later nodes consume, next to intermediates that die. *)
let output_consumed_graph () =
  let x = param 0 and y = param 1 in
  let r = Hlo.op (C.relu sh) [ Hlo.op (C.add sh sh) [ x; y ] ] in
  let m = Hlo.op (C.mul sh sh) [ r; x ] in
  let n = Hlo.op (C.neg sh) [ Hlo.op (C.tanh sh) [ m ] ] in
  Hlo.graph_of_outputs [ r; n; Hlo.op (C.add sh sh) [ n; r ] ]

(* No step of [g]'s plan is an [unbroadcast] to its operand's own shape. *)
let no_identity_unbroadcast name g =
  Test_util.check_true (name ^ ": no identity unbroadcast in the plan")
    (Array.for_all
       (fun (st : Compiler.step) ->
         match (st.node.Hlo.role, st.node.Hlo.inputs) with
         | Hlo.Compute { kind = Unbroadcast _; _ }, [ a ] ->
             not (Shape.equal a.Hlo.shape st.node.Hlo.shape)
         | _ -> true)
       (Compiler.plan (Compiler.compile g)))

let test_run_aliased_output () =
  let g = aliased_output_graph () in
  check_run "unbroadcast output" g (feeds 1);
  no_identity_unbroadcast "unbroadcast output" g;
  (* an output that merely aliases a feed *)
  let x = param 0 and y = param 1 in
  let g = Hlo.graph_of_outputs [ Hlo.op (C.unbroadcast sh sh) [ x ]; Hlo.op (C.neg sh) [ x ] ] in
  check_run "unbroadcast of a feed" g (feeds 2);
  no_identity_unbroadcast "unbroadcast of a feed" g;
  (* an unbroadcast read after its operand's last direct reader *)
  let s = Hlo.op (C.add sh sh) [ x; y ] in
  let u = Hlo.op (C.unbroadcast sh sh) [ s ] in
  let b = Hlo.op (C.relu sh) [ Hlo.op (C.neg sh) [ x ] ] in
  let g = Hlo.graph_of_outputs [ Hlo.op (C.mul sh sh) [ u; b ] ] in
  check_run "unbroadcast of an intermediate" g (feeds 4);
  no_identity_unbroadcast "unbroadcast of an intermediate" g

let test_run_output_consumed () =
  check_run "output consumed later" (output_consumed_graph ()) (feeds 3)

(* (c) One executable, three runs: nothing a run returned may change under
   a later run, and a repeated feed gives the same bits. *)
let test_run_repeated_feeds () =
  List.iter
    (fun (name, g) ->
      let exe = Compiler.compile g and engine = new_engine () in
      let a = feeds 4 and b = feeds 5 in
      let first = Compiler.run exe engine a in
      let kept = Array.map Dense.copy first in
      check_bits (name ^ ", second feeds") (eval_direct g b) (Compiler.run exe engine b);
      let third = Compiler.run exe engine a in
      check_bits (name ^ ", first run untouched") (Array.to_list kept) first;
      check_bits (name ^ ", first feeds again") (Array.to_list kept) third;
      check_bits (name ^ ", = fresh compile") (eval_direct g a) third)
    [ ("aliased output", aliased_output_graph ()); ("consumed output", output_consumed_graph ()) ]

(* Runs [f] on a new domain, whose slab and scratch cache start empty. *)
let on_fresh_domain f = Domain.join (Domain.spawn f)

let test_run_reuses_dead_buffers () =
  (* neg^4 x: the three intermediates share one region of the slab, each
     neg writing over its operand as that dies; the fourth, the graph
     output, is allocated fresh, since it outlives the run *)
  let x = Hlo.param ~index:0 ~shape:[| 64 |] in
  let rec chain k n = if k = 0 then n else chain (k - 1) (Hlo.op (C.neg [| 64 |]) [ n ]) in
  let exe = Compiler.compile (Hlo.graph_of_outputs [ chain 4 x ]) in
  Test_util.check_int "one region's worth of slab" 64 (Compiler.slab exe);
  let engine = new_engine () in
  let xv = Dense.rand_normal (Prng.create 7) [| 64 |] in
  on_fresh_domain (fun () ->
      let out = (Compiler.run exe engine [| xv |]).(0) in
      Test_util.check_true "value" (Dense.bit_equal xv out);
      Test_util.check_true "first run: three reused, the output and the slab fresh"
        (Test_util.buffer_counts engine = (3, 2));
      ignore (Compiler.run exe engine [| xv |]);
      Test_util.check_true "second run: three reused, the output fresh"
        (Test_util.buffer_counts engine = (6, 3)))

(* Conv kernels take their scratch (im2col panels, backward-filter's patch
   panels, backward-input's product panels and transposed filter) from each
   domain's scratch cache. *)
let conv_param i shape = Hlo.param ~index:i ~shape

(* (d) A 1x1 stride-1 conv's patch matrix is a view of its input, not
   scratch: the input, a feed in one graph and an intermediate in the other,
   is read again after the forward and backward-filter convs by same-size
   nodes that would be handed its buffer if a conv had released it. *)
let test_run_pointwise_conv_input_live () =
  let xs = [| 2; 4; 4; 3 |] and fs = [| 1; 1; 3; 5 |] and ys = [| 2; 4; 4; 5 |] in
  let padding = Convolution.Valid in
  let reread x =
    let conv = Hlo.op (C.conv2d ~stride:(1, 1) ~padding xs fs) [ x; conv_param 1 fs ] in
    let dfilter =
      Hlo.op
        (C.conv2d_backward_filter ~stride:(1, 1) ~padding ~filter_shape:fs xs ys)
        [ x; conv_param 2 ys ]
    in
    let r = Hlo.op (C.relu xs) [ x ] in
    Hlo.graph_of_outputs [ conv; dfilter; Hlo.op (C.mul xs xs) [ x; r ] ]
  in
  let feeds =
    [|
      Dense.rand_normal (Prng.create 21) xs;
      Dense.rand_normal (Prng.create 22) fs;
      Dense.rand_normal (Prng.create 23) ys;
    |]
  in
  let x = conv_param 0 xs in
  check_run "pointwise conv of a feed" (reread x) feeds;
  check_run "pointwise conv of an intermediate" (reread (Hlo.op (C.neg xs) [ x ])) feeds

(* (e) Two 3x3 convs in a row. Their padded images come from each domain's
   scratch cache, not from the slab: the first conv's result takes the
   slab, the second's, the output, is fresh, and once the cache is warm no
   scratch is allocated at all. Run on a fresh domain, whose slab and
   cache start empty. *)
let test_run_conv_scratch_reused () =
  let xs = [| 2; 6; 6; 4 |] and fs = [| 3; 3; 4; 4 |] in
  let conv x f =
    Hlo.op (C.conv2d ~stride:(1, 1) ~padding:Convolution.Same xs fs) [ x; f ]
  in
  let g =
    Hlo.graph_of_outputs
      [ conv (conv (conv_param 0 xs) (conv_param 1 fs)) (conv_param 2 fs) ]
  in
  let feeds =
    [|
      Dense.rand_normal (Prng.create 31) xs;
      Dense.rand_normal (Prng.create 32) fs;
      Dense.rand_normal (Prng.create 33) fs;
    |]
  in
  let engine = new_engine () in
  let exe = Compiler.compile g in
  let expected = eval_direct g feeds in
  on_fresh_domain (fun () ->
      check_bits "two 3x3 convs" expected (Compiler.run exe engine feeds);
      Test_util.check_true "first run: conv 1 reused, the output and the slab fresh"
        (Test_util.buffer_counts engine = (1, 2));
      let mem = S4o_obs.Memory.global in
      let was = S4o_obs.Memory.enabled mem in
      S4o_obs.Memory.reset mem;
      S4o_obs.Memory.set_enabled mem true;
      let scratch_allocs =
        Fun.protect
          ~finally:(fun () ->
            S4o_obs.Memory.set_enabled mem was;
            S4o_obs.Memory.reset mem)
          (fun () ->
            check_bits "second run" expected (Compiler.run exe engine feeds);
            List.fold_left
              (fun n (t : S4o_obs.Memory.tag_stats) ->
                if t.tag = "scratch" then n + t.allocs else n)
              0 (S4o_obs.Memory.tags mem))
      in
      Test_util.check_int "second run: no scratch allocated" 0 scratch_allocs;
      Test_util.check_true "second run: conv 1 reused, the output fresh"
        (Test_util.buffer_counts engine = (2, 3)))

let qcheck_compiled_equals_direct =
  (* random elementwise DAGs: the compiler pipeline must preserve semantics *)
  Test_util.qtest ~count:60 "compiled execution = reference evaluation"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 8 in
      let p0 = Hlo.param ~index:0 ~shape:[| n |] in
      let p1 = Hlo.param ~index:1 ~shape:[| n |] in
      (* grow a random DAG of ~6 unary/binary ops *)
      let nodes = ref [ p0; p1 ] in
      for _ = 1 to 6 do
        let pick () = List.nth !nodes (Prng.int rng (List.length !nodes)) in
        let next =
          match Prng.int rng 4 with
          | 0 -> Hlo.op (C.add [| n |] [| n |]) [ pick (); pick () ]
          | 1 -> Hlo.op (C.mul [| n |] [| n |]) [ pick (); pick () ]
          | 2 -> Hlo.op (C.relu [| n |]) [ pick () ]
          | _ -> Hlo.op (C.tanh [| n |]) [ pick () ]
        in
        nodes := next :: !nodes
      done;
      let out = List.hd !nodes in
      let g = Hlo.graph_of_outputs [ out ] in
      let a = Dense.rand_normal rng [| n |] in
      let b = Dense.rand_normal rng [| n |] in
      let engine = S4o_device.Engine.create S4o_device.Device_spec.desktop_cpu in
      let compiled = (Compiler.run (Compiler.compile g) engine [| a; b |]).(0) in
      Dense.equal compiled (List.hd (eval_direct g [| a; b |])))

let suite =
  let tc = Alcotest.test_case in
  [
    ( "xla.hlo",
      [
        tc "topological order" `Quick test_topo_order;
        tc "params ordered" `Quick test_params_ordered;
        tc "fingerprint ignores node ids" `Quick test_fingerprint_id_invariant;
        tc "fingerprint sees attrs" `Quick test_fingerprint_sensitive_to_attrs;
        tc "fingerprint sees shapes" `Quick test_fingerprint_sensitive_to_shape;
        tc "dot rendering" `Quick test_dot_rendering;
      ] );
    ( "xla.passes",
      [
        tc "cse merges" `Quick test_cse_merges_duplicates;
        tc "cse merges below a chain" `Quick test_cse_merges_below_a_chain;
        tc "constant folding" `Quick test_constant_folding;
        tc "optimize preserves semantics" `Quick test_optimize_preserves_semantics;
      ] );
    ( "xla.fusion",
      [
        tc "conv-bias-relu chain fuses" `Quick test_fusion_chains;
        tc "clusters partition compute nodes" `Quick
          test_fusion_partitions_compute_nodes;
        tc "contractions stay separate" `Quick test_fusion_two_contractions_not_merged;
        tc "fusion saves memory traffic" `Quick test_fusion_saves_memory_traffic;
        tc "residual diamond schedulable" `Quick test_fusion_schedulable_in_order;
      ] );
    ( "xla.compiler",
      [
        tc "compile stats and cost" `Quick test_compile_stats_and_cost;
        tc "run matches direct eval" `Quick test_run_matches_direct_eval;
        tc "run dispatches kernels" `Quick test_run_dispatches_kernels;
        tc "simulate advances clock only" `Quick test_simulate_only_advances_clock;
        tc "estimated run time" `Quick test_estimated_run_time_positive;
        tc "feed arity checked" `Quick test_feed_arity_checked;
        tc "peak memory replays the plan" `Quick test_release_plan;
        tc "run: unbroadcast output aliases" `Quick test_run_aliased_output;
        tc "run: output consumed later" `Quick test_run_output_consumed;
        tc "run: repeated feeds" `Quick test_run_repeated_feeds;
        tc "run: reuses dead buffers" `Quick test_run_reuses_dead_buffers;
        tc "run: pointwise conv keeps its input" `Quick test_run_pointwise_conv_input_live;
        tc "run: conv scratch is reused" `Quick test_run_conv_scratch_reused;
        qcheck_compiled_equals_direct;
      ] );
  ]
