(** Tests for the eager (§3.2) and lazy (§3.3–3.4) runtimes: both must agree
    exactly with the naive backend on values, while exhibiting their
    characteristic cost behaviour on the simulated clocks. *)

open S4o_tensor
module Engine = S4o_device.Engine
module Spec = S4o_device.Device_spec

(* A composite expression exercised on every backend. *)
let expr (type t) (module Bk : Backend_intf.S with type t = t) a b =
  let x = Bk.of_dense a and y = Bk.of_dense b in
  let z = Bk.relu (Bk.sub (Bk.mul x y) (Bk.add_scalar 0.5 x)) in
  let m = Bk.matmul (Bk.reshape z [| 2; 2 |]) (Bk.reshape y [| 2; 2 |]) in
  Bk.to_dense (Bk.softmax m)

let sample_inputs seed =
  let g = Prng.create seed in
  (Dense.rand_normal g [| 4 |], Dense.rand_normal g [| 4 |])

let reference seed =
  let a, b = sample_inputs seed in
  expr (module Naive_backend) a b

(* {1 Backend agreement} *)

let test_eager_matches_naive () =
  Test_util.with_eager (fun (module Bk) _ _ ->
      List.iter
        (fun seed ->
          let a, b = sample_inputs seed in
          Test_util.check_tensor "eager = naive" (reference seed)
            (expr (module Bk) a b))
        [ 1; 2; 3; 4; 5 ])

let test_lazy_matches_naive () =
  Test_util.with_lazy (fun (module Bk) _ _ ->
      List.iter
        (fun seed ->
          let a, b = sample_inputs seed in
          Test_util.check_tensor "lazy = naive" (reference seed)
            (expr (module Bk) a b))
        [ 1; 2; 3; 4; 5 ])

(* {1 Differential fuzzing}

   A random program is a list of steps over a growing pool of values, which
   starts as two [n x m] inputs and a [2x2x1x1] conv filter. A step is an op
   code, two operand selectors (taken modulo the number of values that fit
   the op) and a constant for [scale]/[add_scalar]. Two codes exercise the
   lazy executor's buffer plan: [unbroadcast] to the operand's own shape
   (which returns its argument, and which CSE replaces by that argument),
   and a cut, which materializes most values so far in one trace — roots
   that share subexpressions and feed other roots — before the program
   goes on. Each case runs a program,
   then the same program with every constant moved to a near-equal one
   ([c] to [Float.succ c], [1.0000001] to [1.0000004], [0.0] to [-0.0]) twice,
   then with different input dims. Naive, eager and lazy with the program
   cache on and off must agree bit for bit on every value; the eager and lazy
   runtimes are shared by every program of every case, so a cache hit on a
   near-equal program is exactly what this looks for. The cached lazy
   runtime runs each program twice: reading every value back after the
   first run teaches its cut programs to export intermediates, which the
   second run then executes. *)

type program = { dims : int * int; seed : int; steps : (int * int * int * float) list }

(* A backend plus the fuzzer's cut: one barrier over many values on lazy,
   nothing on the backends that run each op as it comes. *)
module type FUZZED = sig
  include Backend_intf.S

  val cut : t list -> unit
end

(* The program's values on [B], not yet read back. *)
let build_program (type t) (module B : FUZZED with type t = t) p =
  let n, m = p.dims in
  let rng = Random.State.make [| p.seed |] in
  let input shape =
    B.of_dense
      (Dense.of_array shape
         (Array.init (Shape.numel shape) (fun _ ->
              match Random.State.int rng 8 with
              | 0 -> 0.0
              | 1 -> -0.0
              | _ -> Random.State.float rng 4.0 -. 2.0)))
  in
  let vals = ref [ input [| n; m |]; input [| n; m |]; input [| 2; 2; 1; 1 |] ] in
  (* Every caller's predicate admits at least one value: [a] itself, or the
     input filter. *)
  let pick sel ok =
    let fits = List.filter (fun v -> ok (B.shape v)) !vals in
    List.nth fits (sel mod List.length fits)
  in
  let step (code, s1, s2, c) =
    let a = pick s1 (fun _ -> true) in
    let sa = B.shape a in
    let same () = pick s2 (Shape.equal sa) in
    let nhwc () = B.reshape a [| 1; sa.(0); sa.(1); 1 |] in
    let flat x = B.reshape x [| sa.(0) - 1; sa.(1) - 1 |] in
    let rank = Shape.rank sa in
    let padding = if s2 mod 2 = 0 then Convolution.Same else Convolution.Valid in
    match code with
    | 0 | 1 | 2 | 3 | 4 ->
        let b = pick s2 (Shape.broadcastable sa) in
        [| B.add; B.sub; B.mul; B.div; B.relu_grad |].(code) a b
    | 5 -> B.scale c a
    | 6 -> B.add_scalar c a
    | 7 -> [| B.neg; B.exp; B.log; B.sqrt; B.relu; B.sigmoid; B.tanh |].(s2 mod 7) a
    | 8 when rank = 2 -> if s2 mod 2 = 0 then B.softmax a else B.log_softmax a
    | 9 -> if rank = 1 then B.reshape a [| 1; sa.(0) |] else B.reshape a [| Shape.numel sa |]
    | 10 when rank = 2 -> B.transpose a
    | 10 when rank = 3 -> B.batch_transpose a
    | 11 when rank >= 1 -> B.sum_axes ~keep_dims:(s2 mod 2 = 0) a [ s2 mod rank ]
    | 12 -> if s2 mod 2 = 0 then B.sum_all a else B.mean_all a
    | 13 when rank < 3 -> B.broadcast_to a (Array.append [| 2 |] sa)
    | 14 when rank >= 2 -> B.unbroadcast a (Array.sub sa 1 (rank - 1))
    | 15 when rank = 2 -> B.matmul a (B.transpose (same ()))
    | 15 when rank = 3 -> B.batch_matmul a (B.batch_transpose (same ()))
    | 16 when rank = 2 && (padding = Same || (sa.(0) >= 2 && sa.(1) >= 2)) ->
        let f = pick s1 (Shape.equal [| 2; 2; 1; 1 |]) in
        let y = B.conv2d ~padding (nhwc ()) f in
        let sy = B.shape y in
        B.reshape y [| sy.(1); sy.(2) |]
    | 17 when rank = 2 ->
        let f = pick s1 (Shape.equal [| 2; 2; 1; 1 |]) in
        let g = B.reshape (same ()) [| 1; sa.(0); sa.(1); 1 |] in
        if s2 mod 2 = 0 then
          B.reshape
            (B.conv2d_backward_input ~padding:Same ~input_shape:(B.shape g) f g)
            sa
        else B.conv2d_backward_filter ~padding:Same ~filter_shape:[| 2; 2; 1; 1 |] (nhwc ()) g
    | 18 when rank = 2 && sa.(0) >= 2 && sa.(1) >= 2 -> (
        let x = nhwc () in
        let size = (2, 2) and stride = (1, 1) in
        let avg = B.avg_pool2d ~size ~stride x and mx = B.max_pool2d ~size ~stride x in
        match s2 mod 4 with
        | 0 -> flat avg
        | 1 -> flat mx
        | 2 -> B.reshape (B.avg_pool2d_backward ~size ~stride ~input_shape:(B.shape x) avg) sa
        | _ -> B.reshape (B.max_pool2d_backward ~size ~stride x mx) sa)
    | 19 -> B.unbroadcast a sa
    | 20 ->
        (* roughly a third of the values stay out of the cut, so the trace
           has intermediates that die inside it next to roots *)
        B.cut (List.filteri (fun i _ -> (i + s2) mod 3 <> 0) !vals);
        B.unbroadcast a sa
    | _ -> B.neg a
  in
  List.iter (fun st -> vals := !vals @ [ step st ]) p.steps;
  !vals

let run_program (type t) (module B : FUZZED with type t = t) p =
  List.map B.to_dense (build_program (module B) p)

let near_equal c =
  if c = 0.0 then -.c
  else if c = 1.0000001 then 1.0000004
  else if c = 1.0000004 then 1.0000001
  else Float.succ c

let arb_program =
  let open QCheck.Gen in
  let const = oneof [ oneofl [ 0.0; -0.0; 1.0000001; 1.0000004 ]; float_range (-3.0) 3.0 ] in
  let step = quad (int_bound 21) (int_bound 1000) (int_bound 1000) const in
  let print p =
    Printf.sprintf "dims %dx%d, seed %d: %s" (fst p.dims) (snd p.dims) p.seed
      (String.concat "; "
         (List.map (fun (op, s1, s2, c) -> Printf.sprintf "(%d %d %d %.17g)" op s1 s2 c) p.steps))
  in
  QCheck.make ~print
    (map3
       (fun n m (seed, steps) -> { dims = (n, m); seed; steps })
       (int_range 1 4) (int_range 1 4)
       (pair (int_bound 100_000) (list_size (int_range 1 12) step)))

let no_cut (module Bk : Backend_intf.S) =
  (module struct
    include Bk

    let cut _ = ()
  end : FUZZED)

let lazy_fuzzed ?cache_enabled () =
  let rt = S4o_lazy.Lazy_runtime.create ?cache_enabled (Engine.create Spec.gtx1080) in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  (module struct
    include Bk

    let cut = Bk.barrier
  end : FUZZED)

let qcheck_three_backends_agree =
  let naive = no_cut (module Naive_backend) in
  let eager = Test_util.with_eager (fun bk _ _ -> no_cut bk) in
  let lazy_cached = lazy_fuzzed () in
  let lazy_uncached = lazy_fuzzed ~cache_enabled:false () in
  Test_util.qtest ~count:300 "naive = eager = lazy on random programs" arb_program
    (fun p ->
      let nudged p =
        { p with steps = List.map (fun (o, a, b, c) -> (o, a, b, near_equal c)) p.steps }
      in
      let n, m = p.dims in
      let run (module Bk : FUZZED) p = run_program (module Bk) p in
      List.for_all
        (fun p ->
          let expected = run naive p in
          List.for_all
            (fun bk -> List.for_all2 Dense.bit_equal expected (run bk p))
            (* twice in a row on the cached runtime: the second run's cuts
               hit programs that learned to export what the first run
               read back *)
            [ eager; lazy_cached; lazy_cached; lazy_uncached ])
        [ p; nudged p; nudged (nudged p); { p with dims = (m + 1, n) } ])

(* {2 Compiled programs}

   Each random program, traced on lazy with no cut, becomes one graph whose
   outputs are every third value and the last. The slab check compiles it
   and holds the plan to a liveness analysis of its own: a value lives
   from its step through its last reader. *)

(* The graph of a random program traced on [rt], with its roots (each a
   lazy value and its naive counterpart) and feeds; [None] when no root is
   left pending. *)
let traced_graph rt p =
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let traced =
    (module struct
      include Bk

      let cut _ = ()
    end : FUZZED
      with type t = Bk.t)
  in
  let values =
    let (module N : FUZZED) = no_cut (module Naive_backend) in
    List.combine (build_program traced p) (run_program (module N) p)
  in
  let last = List.length values - 1 in
  let roots =
    List.filteri (fun i (v, _) -> (i mod 3 = 2 || i = last) && S4o_lazy.Trace.is_pending v) values
  in
  if roots = [] then None
  else
    let cut = S4o_lazy.Trace.cut (List.map fst roots) in
    let feeds =
      Array.of_list
        (List.map
           (fun (l : S4o_lazy.Trace.node) ->
             match l.state with S4o_lazy.Trace.Materialized v -> v | _ -> assert false)
           cut.leaves)
    in
    Some (cut.graph, List.map snd roots, feeds)

(* After [Opt.optimize], no two nodes share a key (CSE left no merge out)
   and no [unbroadcast] keeps its operand's shape (its kernel would return
   the operand: an alias the buffer plan does not model). *)
let qcheck_optimized_has_no_duplicates =
  let rt = S4o_lazy.Lazy_runtime.create (Engine.create Spec.gtx1080) in
  Test_util.qtest ~count:300 "optimize: no equal keys, no identity unbroadcast" arb_program
    (fun p ->
      match traced_graph rt p with
      | None -> true
      | Some (g, _, _) ->
          let g, _ = S4o_xla.Opt.optimize g in
          let keys = S4o_xla.Hlo.Node_table.create 64 in
          List.for_all
            (fun (n : S4o_xla.Hlo.node) ->
              let key = S4o_xla.Hlo.node_key ~input:(fun i -> i.S4o_xla.Hlo.id) n in
              let fresh = not (S4o_xla.Hlo.Node_table.mem keys key) in
              S4o_xla.Hlo.Node_table.add keys key ();
              fresh
              &&
              match (n.role, n.inputs) with
              | S4o_xla.Hlo.Compute { kind = Unbroadcast _; _ }, [ a ] ->
                  not (Shape.equal a.shape n.shape)
              | _ -> true)
            g.nodes)

(* The kernels that may write over an operand of their own shape that dies
   at them: each reads element [i] before it writes element [i]. *)
let elementwise (st : S4o_xla.Compiler.step) =
  match st.node.role with
  | S4o_xla.Hlo.Compute { kind; _ } -> (
      match kind with
      | Add | Sub | Mul | Div | Relu_grad | Neg | Exp | Log | Sqrt | Relu | Sigmoid | Tanh
      | Scale _ | Add_scalar _ ->
          true
      | _ -> false)
  | _ -> false

(* Every region lies inside the slab; two values live at the same step
   never share an element, but for an elementwise result written over an
   operand that dies at it; and exactly the compute values that are not
   outputs have regions. *)
let slab_plan_ok exe =
  let steps = S4o_xla.Compiler.plan exe and slab = S4o_xla.Compiler.slab exe in
  let n = Array.length steps in
  let last = Array.init n Fun.id in
  Array.iteri
    (fun k (st : S4o_xla.Compiler.step) ->
      Array.iter (fun j -> last.(j) <- max last.(j) k) st.operands)
    steps;
  let len s = Shape.numel steps.(s).node.shape and off s = steps.(s).offset in
  let regions = List.filter (fun s -> off s >= 0) (List.init n Fun.id) in
  let handoff a b =
    elementwise steps.(b)
    && Array.mem a steps.(b).operands
    && last.(a) = b
    && off a = off b
    && Shape.equal steps.(a).node.shape steps.(b).node.shape
  in
  let planned s =
    match steps.(s).node.role with
    | S4o_xla.Hlo.Compute _ -> not steps.(s).output
    | _ -> false
  in
  List.for_all (fun s -> off s + len s <= slab) regions
  && List.for_all
       (fun a ->
         List.for_all
           (fun b ->
             b <= a || b > last.(a) || off a + len a <= off b || off b + len b <= off a
             || handoff a b)
           regions)
       regions
  && List.for_all (fun s -> planned s = (off s >= 0)) (List.init n Fun.id)

let qcheck_slab_assignment =
  let engine = Engine.create Spec.gtx1080 in
  let rt = S4o_lazy.Lazy_runtime.create engine in
  Test_util.qtest ~count:300 "slab: live values disjoint, in bounds, = naive" arb_program
    (fun p ->
      match traced_graph rt p with
      | None -> true
      | Some (g, expected, feeds) ->
          let exe = S4o_xla.Compiler.compile g in
          let run () =
            let _, fresh0 = Test_util.buffer_counts engine in
            let out = S4o_xla.Compiler.run exe engine feeds in
            (out, snd (Test_util.buffer_counts engine) - fresh0)
          in
          (* the second run finds the slab big enough: each kernel that runs
             outside it allocates its one result, and nothing else allocates *)
          let fresh_steps =
            Array.fold_left
              (fun n (st : S4o_xla.Compiler.step) ->
                match st.node.role with
                | S4o_xla.Hlo.Compute _ when st.offset < 0 -> n + 1
                | _ -> n)
              0 (S4o_xla.Compiler.plan exe)
          in
          ignore (run ());
          let out, fresh = run () in
          slab_plan_ok exe
          && List.for_all2 Dense.bit_equal expected (Array.to_list out)
          && fresh = fresh_steps)

(* {1 Eager runtime behaviour} *)

let test_eager_dispatch_costs_host_time () =
  Test_util.with_eager (fun (module Bk) rt _ ->
      let a, b = sample_inputs 1 in
      let _ = expr (module Bk) a b in
      Test_util.check_true "ops dispatched"
        ((S4o_eager.Runtime.stats rt).S4o_obs.Stats.ops_dispatched > 5);
      Test_util.check_true "host time accrued"
        (S4o_eager.Runtime.host_time rt > 0.0))

let test_eager_pipeline_until_observed () =
  Test_util.with_eager (fun (module Bk) _ engine ->
      let a, _ = sample_inputs 1 in
      let x = Bk.of_dense a in
      let y = Bk.relu (Bk.exp x) in
      (* nothing observed yet: device may still be behind *)
      let depth_before = Engine.pipeline_depth engine in
      let _ = Bk.to_dense y in
      Test_util.check_true "pipeline filled then drained"
        (depth_before >= 0.0 && Engine.pipeline_depth engine = 0.0))

let test_eager_overhead_configurable () =
  let engine = Engine.create Spec.gtx1080 in
  let rt = S4o_eager.Runtime.create ~dispatch_overhead:1.0 engine in
  let module Bk = S4o_eager.Eager_backend.Make (struct
    let rt = rt
  end) in
  let _ = Bk.relu (Bk.of_dense (Dense.zeros [| 2 |])) in
  Test_util.check_close "1s per op" 1.0 (S4o_eager.Runtime.host_time rt)

(* {1 Lazy runtime behaviour} *)

let test_lazy_defers_execution () =
  Test_util.with_lazy (fun (module Bk) rt engine ->
      let a, _ = sample_inputs 2 in
      let x = Bk.of_dense a in
      let _y = Bk.relu (Bk.exp (Bk.sqrt (Bk.sigmoid x))) in
      ignore _y;
      (* no trace cut, no kernels, no compiles until observation *)
      let st = S4o_lazy.Lazy_runtime.stats rt in
      Test_util.check_int "no traces yet" 0 st.S4o_lazy.Lazy_runtime.traces_cut;
      Test_util.check_int "no kernels yet" 0 (Engine.kernels_launched engine))

let test_lazy_program_cache_hits () =
  Test_util.with_lazy (fun (module Bk) rt _ ->
      let step seed =
        let a, b = sample_inputs seed in
        ignore (expr (module Bk) a b)
      in
      (* same structure, different data: compile once, then cache hits *)
      List.iter step [ 1; 2; 3; 4; 5 ];
      let st = S4o_lazy.Lazy_runtime.stats rt in
      Test_util.check_int "five traces" 5 st.S4o_lazy.Lazy_runtime.traces_cut;
      Test_util.check_int "one compile" 1 st.S4o_lazy.Lazy_runtime.cache_misses;
      Test_util.check_int "four hits" 4 st.S4o_lazy.Lazy_runtime.cache_hits)

let test_lazy_shape_change_recompiles () =
  Test_util.with_lazy (fun (module Bk) rt _ ->
      let run n =
        let g = Prng.create n in
        let x = Bk.of_dense (Dense.rand_normal g [| n |]) in
        ignore (Bk.to_dense (Bk.relu x))
      in
      run 4;
      run 4;
      run 8;
      (* S3.4: "changes in the dimensions of the input tensors can trigger
         recompilation" *)
      let st = S4o_lazy.Lazy_runtime.stats rt in
      Test_util.check_int "two compiles for two shapes" 2
        st.S4o_lazy.Lazy_runtime.cache_misses;
      Test_util.check_int "one hit for the repeat" 1
        st.S4o_lazy.Lazy_runtime.cache_hits)

let test_lazy_cache_disabled_recompiles () =
  Test_util.with_lazy ~cache_enabled:false (fun (module Bk) rt _ ->
      let run () =
        let x = Bk.of_dense (Dense.ones [| 4 |]) in
        ignore (Bk.to_dense (Bk.relu x))
      in
      run ();
      run ();
      run ();
      let st = S4o_lazy.Lazy_runtime.stats rt in
      Test_util.check_int "every trace compiles" 3 st.S4o_lazy.Lazy_runtime.cache_misses)

let test_lazy_tracing_overhead_charged () =
  let engine = Engine.create ~recorder:(S4o_obs.Recorder.create ()) Spec.gtx1080 in
  let rt = S4o_lazy.Lazy_runtime.create engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let x = Bk.of_dense (Dense.ones [| 4 |]) in
  let _ = Bk.to_dense (Bk.relu (Bk.exp x)) in
  (* two recorded ops, charged to the host clock as one span *)
  match
    List.filter
      (fun (s : S4o_obs.Recorder.span) -> s.name = "trace-record")
      (S4o_obs.Recorder.spans (Engine.recorder engine))
  with
  | [ s ] ->
      Test_util.check_close ~eps:1e-12 "re-tracing overhead on the host clock"
        (2.0 *. S4o_lazy.Lazy_runtime.trace_overhead_per_op)
        (s.finish -. s.start)
  | spans -> Alcotest.failf "%d trace-record spans" (List.length spans)

let test_lazy_barrier_cuts_trace () =
  let engine = Engine.create Spec.gtx1080 in
  let rt = S4o_lazy.Lazy_runtime.create engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let x = Bk.of_dense (Dense.ones [| 4 |]) in
  let y = Bk.relu x in
  Bk.barrier [ y ];
  let st = S4o_lazy.Lazy_runtime.stats rt in
  Test_util.check_int "trace cut at barrier" 1 st.S4o_lazy.Lazy_runtime.traces_cut;
  (* after the barrier, y is device data: a new trace starts from it *)
  let z = Bk.to_dense (Bk.exp y) in
  Test_util.check_tensor "value correct across barrier"
    (Dense.exp (Dense.relu (Dense.ones [| 4 |])))
    z;
  let st = S4o_lazy.Lazy_runtime.stats rt in
  Test_util.check_int "second trace only 1 op" 1
    st.S4o_lazy.Lazy_runtime.largest_trace

let test_lazy_placeholder_timing_only () =
  let engine = Engine.create Spec.gtx1080 in
  let rt = S4o_lazy.Lazy_runtime.create engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let x = Bk.placeholder [| 64; 64 |] in
  let y = Bk.matmul x x in
  Bk.barrier [ y ];
  (* clock advanced, kernels counted, but contents unobservable *)
  Test_util.check_true "device time advanced" (Engine.device_ready_at engine > 0.0);
  Test_util.check_raises_any "cannot observe timing-only tensors" (fun () ->
      Bk.to_dense y)

let test_lazy_capture_is_free () =
  let engine = Engine.create Spec.gtx1080 in
  let rt = S4o_lazy.Lazy_runtime.create engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let x = Bk.placeholder [| 4 |] in
  let y = Bk.relu (Bk.exp x) in
  let g = Bk.capture [ y ] in
  Test_util.check_int "graph has param + 2 ops" 3 (S4o_xla.Hlo.size g);
  Test_util.check_close "no cost charged" 0.0 (Engine.host_time engine);
  let st = S4o_lazy.Lazy_runtime.stats rt in
  Test_util.check_int "no trace consumed" 0 st.S4o_lazy.Lazy_runtime.traces_cut

(* neg^4, run on a fresh domain, whose slab starts empty: the three
   intermediates are served from the slab, and the output and the slab's
   first growth are fresh. *)
let test_lazy_reports_buffer_reuse () =
  Domain.join
    (Domain.spawn (fun () ->
         Test_util.with_lazy ~recorder:(S4o_obs.Recorder.create ())
           (fun (module Bk) _ engine ->
             let x = Bk.of_dense (Dense.ones [| 64 |]) in
             ignore (Bk.to_dense (Bk.neg (Bk.neg (Bk.neg (Bk.neg x)))));
             let arg name =
               List.find_map
                 (fun (s : S4o_obs.Recorder.span) ->
                   if s.name = "materialize" then List.assoc_opt name s.args else None)
                 (S4o_obs.Recorder.spans (Engine.recorder engine))
             in
             Test_util.check_true "span reuse arg" (arg "buffers_reused" = Some "3");
             Test_util.check_true "span fresh arg" (arg "buffers_fresh" = Some "2");
             Test_util.check_true "counters" (Test_util.buffer_counts engine = (3, 2)))))

(* A result the caller keeps does not keep alive the trace that computed
   it: once materialized, a node is a leaf and holds only its value. The
   count leaves the value out, whose size does not depend on the trace. *)
let test_lazy_result_drops_its_trace () =
  Test_util.with_lazy (fun (module Bk) _ _ ->
      let words n =
        let rec chain k y = if k = 0 then y else chain (k - 1) (Bk.neg y) in
        let y = chain n (Bk.of_dense (Dense.ones [| 4 |])) in
        let v = Bk.to_dense y in
        Obj.reachable_words (Obj.repr y) - Obj.reachable_words (Obj.repr v)
      in
      Test_util.check_int "as small after 100 ops as after 10" (words 10) (words 100))

(* {1 The slab across runs of one program} *)

(* One Adam step of a conv + BatchNorm model, on [Bk]: the loss, then the
   updated parameters and optimizer state. *)
let adam_step (type t) (module Bk : Backend_intf.S with type t = t) =
  let module M = S4o_nn.Models.Make (Bk) in
  let module T = S4o_nn.Train.Make (Bk) in
  let module O = S4o_nn.Optimizer.Make (Bk) in
  let rng = Prng.create 17 in
  let data = S4o_data.Dataset.synthetic_cifar10 rng ~n:4 in
  let images, labels, _ = List.hd (S4o_data.Dataset.batches data ~batch_size:4) in
  let model =
    M.resnet rng ~in_channels:3
      {
        M.stem_channels = 4;
        stem_kernel = 3;
        stem_stride = 1;
        stem_pool = false;
        stage_blocks = [ 1 ];
        stage_channels = [ 4 ];
        bottleneck = false;
        classes = 10;
      }
  in
  let opt = O.adam ~lr:1e-3 model in
  let r = T.step model opt ~images ~labels in
  M.L.D.value r.T.loss :: O.updated_params opt

(* The step traced on lazy and compiled once. [run ()] runs it on its
   feeds and gives the outputs with the run's fresh allocations. *)
let step_program () =
  let engine = Engine.create Spec.gtx1080 in
  let rt = S4o_lazy.Lazy_runtime.create engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let cut = S4o_lazy.Trace.cut (adam_step (module Bk)) in
  let feeds =
    Array.of_list
      (List.map
         (fun (l : S4o_lazy.Trace.node) ->
           match l.S4o_lazy.Trace.state with
           | S4o_lazy.Trace.Materialized v -> v
           | Simulated | Pending -> Alcotest.fail "step leaf without a value")
         cut.leaves)
  in
  let exe = S4o_xla.Compiler.compile cut.graph in
  let run () =
    let _, fresh0 = Test_util.buffer_counts engine in
    let outputs = S4o_xla.Compiler.run exe engine feeds in
    (outputs, snd (Test_util.buffer_counts engine) - fresh0)
  in
  (run, List.length cut.graph.outputs)

(* On a fresh domain, whose slab starts empty, the step's first run
   allocates its outputs and the slab, and every later run its outputs
   only. Another program of the same step finds the slab big enough and
   allocates only its outputs from its first run; naive work between runs
   changes nothing. *)
let test_step_program_reuses_its_buffers () =
  let naive = adam_step (module Naive_backend) in
  Domain.join
    (Domain.spawn (fun () ->
         let run, n_outputs = step_program () in
         for i = 1 to 5 do
           let outputs, fresh = run () in
           Test_util.check_true
             (Printf.sprintf "run %d = naive" i)
             (List.for_all2 Dense.bit_equal naive (Array.to_list outputs));
           Test_util.check_int
             (Printf.sprintf "run %d allocates its outputs%s" i
                (if i = 1 then " and the slab" else ""))
             (if i = 1 then n_outputs + 1 else n_outputs)
             fresh
         done;
         let other, _ = step_program () in
         Test_util.check_int "another program allocates its outputs" n_outputs (snd (other ()));
         ignore (adam_step (module Naive_backend));
         Test_util.check_int "and so does this one after naive work" n_outputs (snd (run ()))))

(* {1 One slab for every program} *)

(* LeNet inference on lazy, one program per batch size, as a server runs
   it. [request b] answers [b] examples and gives the answer with the fresh
   allocations its run made; [naive b] is the same answer on naive. *)
let lenet_server () =
  let engine = Engine.create Spec.gtx1080 in
  let rt = S4o_lazy.Lazy_runtime.create engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let module M = S4o_nn.Models.Make (Bk) in
  let module T = S4o_nn.Train.Make (Bk) in
  let module Mn = S4o_nn.Models.Make (Naive_backend) in
  let module Tn = S4o_nn.Train.Make (Naive_backend) in
  let model = M.lenet (Prng.create 5) and reference = Mn.lenet (Prng.create 5) in
  let images = (S4o_data.Dataset.synthetic_mnist (Prng.create 6) ~n:16).S4o_data.Dataset.images in
  let input b = Dense.init_flat [| b; 28; 28; 1 |] (Dense.get_flat images) in
  let request b =
    let x = input b in
    let _, fresh0 = Test_util.buffer_counts engine in
    let y = Bk.to_dense (T.predict model (Bk.of_dense x)) in
    (y, snd (Test_util.buffer_counts engine) - fresh0)
  in
  let naive b = Tn.predict reference (input b) in
  (* what the server keeps, less its metrics registry, whose histograms
     grow to a fixed reservoir of samples by design *)
  let reach () =
    Obj.reachable_words (Obj.repr (rt, model))
    - Obj.reachable_words (Obj.repr (Engine.metrics engine))
  in
  (request, naive, reach)

(* Programs at batch sizes 1, 2, 4 and 8 alternate, with one size seen
   once among them. Every answer is naive's, bit for bit. A request grows
   the slab only when its program needs a larger one than any before it,
   and allocates fresh only its output otherwise; so from the second at
   its batch size on, a request allocates fresh only its output. *)
let test_alternating_programs_share_the_slab () =
  let request, naive, _ = lenet_server () in
  let sizes = [ 1; 2; 4; 8; 1; 2; 4; 8; 13; 1; 2; 4; 8; 4; 1; 8; 2 ] in
  List.iteri
    (fun i b ->
      let slab0 = Dense.slab_bytes () in
      let y, fresh = request b in
      Test_util.check_true (Printf.sprintf "request %d (batch %d) = naive" i b)
        (Dense.bit_equal (naive b) y);
      let grew = Dense.slab_bytes () > slab0 in
      Test_util.check_true
        (Printf.sprintf "request %d (batch %d) grows the slab only at a new size" i b)
        ((not grew) || not (List.mem b (List.filteri (fun j _ -> j < i) sizes)));
      Test_util.check_int
        (Printf.sprintf "request %d (batch %d) allocates its output%s" i b
           (if grew then " and the slab" else ""))
        (if grew then 2 else 1)
        fresh)
    sizes

(* The same server checking each answer against naive right after its
   lazy run, on a fresh domain whose slab has served one batch of 16
   first. The naive passes allocate fresh, several times what the lazy
   programs need; the slab is the program's, and the checks never touch
   it. So every request after the first, at any batch size, allocates
   fresh only its output. *)
let test_naive_between_requests_keeps_the_slab () =
  Domain.join
    (Domain.spawn (fun () ->
         let request, naive, _ = lenet_server () in
         let sizes = [ 16; 1; 2; 4; 8; 1; 2; 4; 8; 13; 1; 2; 4; 8; 4; 1; 8; 2 ] in
         List.iteri
           (fun i b ->
             let y, fresh = request b in
             Test_util.check_true (Printf.sprintf "request %d (batch %d) = naive" i b)
               (Dense.bit_equal (naive b) y);
             if i > 0 then
               Test_util.check_int
                 (Printf.sprintf "request %d (batch %d) allocates its output" i b)
                 1 fresh)
           sizes))

(* A long-lived server's memory is flat over a cycling mix of batch sizes:
   what the runtime and model reach beyond their metrics, and the slab,
   are the same after 2N requests as after N. *)
let test_cycling_mix_soak_flat () =
  let request, _, reach = lenet_server () in
  let sizes = [| 1; 2; 4; 8; 3 |] in
  let n = 200 in
  let after k =
    for i = 1 to k do
      ignore (request sizes.(i mod Array.length sizes))
    done;
    Gc.full_major ();
    (reach (), Dense.slab_bytes ())
  in
  let words_n, slab_n = after n in
  let words_2n, slab_2n = after n in
  Test_util.check_true
    (Printf.sprintf "runtime reaches %d words after N, %d after 2N" words_n words_2n)
    (words_2n <= words_n);
  Test_util.check_int "slab bytes" slab_n slab_2n

let suite =
  let tc = Alcotest.test_case in
  [
    ( "runtimes.agreement",
      [
        tc "eager = naive" `Quick test_eager_matches_naive;
        tc "lazy = naive" `Quick test_lazy_matches_naive;
        qcheck_three_backends_agree;
        qcheck_optimized_has_no_duplicates;
        qcheck_slab_assignment;
      ] );
    ( "runtimes.eager",
      [
        tc "dispatch costs host time" `Quick test_eager_dispatch_costs_host_time;
        tc "pipeline drains on observe" `Quick test_eager_pipeline_until_observed;
        tc "overhead configurable" `Quick test_eager_overhead_configurable;
      ] );
    ( "runtimes.lazy",
      [
        tc "defers execution" `Quick test_lazy_defers_execution;
        tc "program cache hits across values" `Quick test_lazy_program_cache_hits;
        tc "shape change recompiles" `Quick test_lazy_shape_change_recompiles;
        tc "cache ablation recompiles" `Quick test_lazy_cache_disabled_recompiles;
        tc "re-tracing overhead charged" `Quick test_lazy_tracing_overhead_charged;
        tc "barrier cuts the trace" `Quick test_lazy_barrier_cuts_trace;
        tc "timing-only placeholders" `Quick test_lazy_placeholder_timing_only;
        tc "capture charges nothing" `Quick test_lazy_capture_is_free;
        tc "step program reuses its buffers" `Quick test_step_program_reuses_its_buffers;
        tc "result drops its trace" `Quick test_lazy_result_drops_its_trace;
        tc "reports buffer reuse" `Quick test_lazy_reports_buffer_reuse;
      ] );
    ( "runtimes.pool",
      [
        tc "alternating programs share the pool" `Quick test_alternating_programs_share_the_slab;
        tc "cycling batch sizes stay flat" `Quick test_cycling_mix_soak_flat;
        tc "naive passes between requests keep it" `Quick
          test_naive_between_requests_keeps_the_slab;
      ] );
  ]

(* {1 Automatic trace cutting (S3.4 future work, implemented)} *)

let test_auto_cut_dispatches_without_barriers () =
  let engine = Engine.create Spec.gtx1080 in
  let rt = S4o_lazy.Lazy_runtime.create ~auto_cut_threshold:5 engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let x = ref (Bk.of_dense (Dense.ones [| 4 |])) in
  for _ = 1 to 20 do
    x := Bk.relu (Bk.add_scalar 0.1 !x)
  done;
  (* 40 recorded ops with threshold 5: the runtime must have cut on its own *)
  Test_util.check_true "auto cuts happened"
    ((S4o_lazy.Lazy_runtime.stats rt).S4o_lazy.Lazy_runtime.auto_cuts >= 7);
  let st = S4o_lazy.Lazy_runtime.stats rt in
  Test_util.check_true "fragments bounded" (st.S4o_lazy.Lazy_runtime.largest_trace <= 5);
  (* and values are still exactly right: replay the exact op sequence *)
  let reference = ref (Dense.ones [| 4 |]) in
  for _ = 1 to 20 do
    reference := Dense.relu (Dense.add_scalar 0.1 !reference)
  done;
  Test_util.check_tensor "auto-cut values correct" !reference (Bk.to_dense !x)

let test_auto_cut_disabled_by_default () =
  let engine = Engine.create Spec.gtx1080 in
  let rt = S4o_lazy.Lazy_runtime.create engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let x = ref (Bk.of_dense (Dense.ones [| 4 |])) in
  for _ = 1 to 50 do
    x := Bk.relu !x
  done;
  Test_util.check_int "no auto cuts" 0
    (S4o_lazy.Lazy_runtime.stats rt).S4o_lazy.Lazy_runtime.auto_cuts

let test_auto_cut_threshold_validated () =
  let engine = Engine.create Spec.gtx1080 in
  Test_util.check_raises_any "rejects non-positive threshold" (fun () ->
      S4o_lazy.Lazy_runtime.create ~auto_cut_threshold:0 engine)

let test_manual_barrier_resets_auto_counter () =
  let engine = Engine.create Spec.gtx1080 in
  let rt = S4o_lazy.Lazy_runtime.create ~auto_cut_threshold:10 engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let x = ref (Bk.of_dense (Dense.ones [| 4 |])) in
  for _ = 1 to 8 do
    x := Bk.relu !x;
    Bk.barrier [ !x ]
  done;
  (* each manual cut resets the counter, so the threshold is never reached *)
  Test_util.check_int "no auto cuts with frequent barriers" 0
    (S4o_lazy.Lazy_runtime.stats rt).S4o_lazy.Lazy_runtime.auto_cuts

let auto_cut_suite =
  let tc = Alcotest.test_case in
  [
    ( "runtimes.auto_cut",
      [
        tc "dispatches without annotations" `Quick test_auto_cut_dispatches_without_barriers;
        tc "off by default" `Quick test_auto_cut_disabled_by_default;
        tc "threshold validated" `Quick test_auto_cut_threshold_validated;
        tc "manual barriers reset the counter" `Quick test_manual_barrier_resets_auto_counter;
      ] );
  ]

(* {1 Lazy training steps: read-back, step-varying scalars, bounded cache} *)

let new_lazy ?cache_enabled () =
  let engine = Engine.create Spec.gtx1080 in
  (S4o_lazy.Lazy_runtime.create ?cache_enabled engine, engine)

let counter engine name =
  S4o_obs.Metrics.counter_value (S4o_obs.Metrics.counter (Engine.metrics engine) name)

let lazy_stats rt = S4o_lazy.Lazy_runtime.stats rt

(* Four steps of: record [h] and [y] from [h], barrier at [y], force [h].
   Returns [lazy.recomputed_ops] and the runtime stats after each step. *)
let read_back_steps ?cache_enabled () =
  let rt, engine = new_lazy ?cache_enabled () in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  List.map
    (fun seed ->
      let a, b = sample_inputs seed in
      let h = Bk.relu (Bk.mul (Bk.of_dense a) (Bk.of_dense b)) in
      let y = Bk.sum_all (Bk.exp h) in
      Bk.barrier [ y ];
      Test_util.check_true "h = naive, bit for bit"
        (Dense.bit_equal (Dense.relu (Dense.mul a b)) (Bk.to_dense h));
      (counter engine "lazy.recomputed_ops", lazy_stats rt))
    [ 1; 2; 3; 4 ]

let test_lazy_read_back_exported () =
  let steps = read_back_steps () in
  let recomputed = List.map fst steps in
  Test_util.check_true "step 1 recomputes h" (List.hd recomputed > 0);
  Test_util.check_true "recomputed_ops stops growing after step 1"
    (List.for_all (( = ) (List.hd recomputed)) recomputed);
  let st = snd (List.nth steps 3) in
  (* step 1 compiles the barrier's and the force's programs; step 2
     compiles the barrier's program again, now exporting [h]; steps 3 and 4
     hit it. From step 2 on, the force cuts nothing. *)
  Test_util.check_int "cuts" 5 st.S4o_obs.Stats.traces_cut;
  Test_util.check_int "misses" 3 st.S4o_obs.Stats.cache_misses;
  Test_util.check_int "hits" 2 st.S4o_obs.Stats.cache_hits

let test_lazy_read_back_needs_cache () =
  let steps = read_back_steps ~cache_enabled:false () in
  Test_util.check_true "every step recomputes h"
    (List.map fst steps = [ 2; 4; 6; 8 ]);
  Test_util.check_int "two cuts per step" 8
    (snd (List.nth steps 3)).S4o_obs.Stats.traces_cut

let test_lazy_cache_lru () =
  let rt, engine = new_lazy () in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  (* one distinct program per length *)
  let run n = ignore (Bk.to_dense (Bk.relu (Bk.of_dense (Dense.ones [| n |])))) in
  let capacity = S4o_lazy.Lazy_runtime.cache_capacity in
  for n = 1 to capacity do
    run n
  done;
  run 1;
  for n = capacity + 1 to capacity + 3 do
    run n
  done;
  Test_util.check_int "size stays at capacity" capacity
    (S4o_lazy.Lazy_runtime.cache_size rt);
  Test_util.check_int "three evictions" 3 (counter engine "lazy.cache_evictions");
  let hits () = (lazy_stats rt).S4o_obs.Stats.cache_hits in
  let h0 = hits () in
  run 1;
  Test_util.check_int "the entry just hit survived" (h0 + 1) (hits ());
  run 2;
  Test_util.check_int "the least recently used went" (h0 + 1) (hits ())

(* A tiny conv + BatchNorm classifier trained by [Train.fit] on fixed
   batches, the same on every backend. *)
module Tiny (Bk : Backend_intf.S) = struct
  module L = S4o_nn.Layer.Make (Bk)
  module O = S4o_nn.Optimizer.Make (Bk)
  module S = S4o_nn.Schedule.Make (Bk)
  module T = S4o_nn.Train.Make (Bk)

  let model () =
    let rng = Prng.create 5 in
    L.sequential
      [
        L.conv2d rng ~filter:(3, 3, 2, 4) ();
        L.batch_norm ~features:4 ();
        L.relu;
        L.flatten;
        L.dense rng ~inputs:(4 * 4 * 4) ~outputs:3 ();
      ]

  let batches n =
    let rng = Prng.create 9 in
    List.init n (fun i ->
        let labels = [| i mod 3; (i + 1) mod 3 |] in
        ( Dense.rand_normal rng [| 2; 4; 4; 2 |],
          Dense.one_hot ~classes:3 (Dense.of_array [| 2 |] (Array.map float_of_int labels)),
          labels ))

  (* [n] steps of [fit]; [after_step] is the backend's barrier. Returns
     every loss, then the parameters and optimizer state. *)
  let train ?(after_step = ignore) ~optimizer n =
    let model = model () in
    let opt =
      match optimizer with
      | `Adam -> O.adam ~lr:1e-2 model
      | `Cosine ->
          S.scheduled_sgd ~momentum:0.9
            (S4o_nn.Schedule.cosine ~lr:0.1 ~lr_min:0.01 ~total:6)
            model
    in
    let losses = ref [] in
    ignore
      (T.fit
         ~after_step:(fun ts ->
           after_step ts;
           losses := List.hd ts :: !losses)
         model opt (batches n));
    List.rev_map Bk.to_dense !losses @ List.map Bk.to_dense (O.updated_params opt)
end

module Tiny_naive = Tiny (Naive_backend)

let digest ts =
  let b = Buffer.create 4096 in
  List.iter
    (fun t ->
      Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) (Dense.to_array t))
    ts;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Trains on a fresh lazy runtime; [before_barrier] sees the runtime just
   before each step's barrier. *)
let train_lazy ?(before_barrier = ignore) ~optimizer n =
  let rt, _ = new_lazy () in
  let module Lz = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let module W = Tiny (Lz) in
  let values =
    W.train ~optimizer
      ~after_step:(fun ts ->
        before_barrier rt;
        Lz.barrier ts)
      n
  in
  (rt, values)

(* Recorded at the commit before Adam fed its bias corrections as tensors:
   [mul] by a one-element tensor must reproduce [scale]'s bits. *)
let adam_golden = "c5336a78f96d1d19d0cff7651531c25b"

let test_adam_golden_digest () =
  Test_util.check_string "naive" adam_golden (digest (Tiny_naive.train ~optimizer:`Adam 3));
  Test_util.check_string "lazy" adam_golden (digest (snd (train_lazy ~optimizer:`Adam 3)))

(* [n] lazy steps: per step, the cuts from its barrier up to the next one
   (the barrier and the loop's read-backs), and the cache size after it;
   then the trained values. *)
let step_profile ~optimizer n =
  let marks = ref [] in
  let mark rt =
    marks :=
      ((lazy_stats rt).S4o_obs.Stats.traces_cut, S4o_lazy.Lazy_runtime.cache_size rt)
      :: !marks
  in
  let rt, values = train_lazy ~before_barrier:mark ~optimizer n in
  mark rt;
  let marks = Array.of_list (List.rev !marks) in
  ( List.init n (fun k -> fst marks.(k + 1) - fst marks.(k)),
    List.init n (fun k -> snd marks.(k + 1)),
    values )

let from_step_3 l = List.filteri (fun i _ -> i >= 2) l

let check_steady name ~optimizer =
  let cuts, sizes, values = step_profile ~optimizer 6 in
  Test_util.check_true (name ^ ": one cut per step from step 3")
    (List.for_all (( = ) 1) (from_step_3 cuts));
  Test_util.check_true (name ^ ": cache size flat from step 3")
    (List.for_all (( = ) (List.nth sizes 2)) (from_step_3 sizes));
  Test_util.check_true (name ^ ": losses and state = naive, bit for bit")
    (List.for_all2 Dense.bit_equal (Tiny_naive.train ~optimizer 6) values)

let test_lazy_fit_adam_one_cut () = check_steady "adam" ~optimizer:`Adam
let test_lazy_fit_cosine_one_cut () = check_steady "cosine sgd" ~optimizer:`Cosine

let lazy_step_suite =
  let tc = Alcotest.test_case in
  [
    ( "runtimes.lazy_step",
      [
        tc "read-back is exported" `Quick test_lazy_read_back_exported;
        tc "no learning without the cache" `Quick test_lazy_read_back_needs_cache;
        tc "program cache is LRU-bounded" `Quick test_lazy_cache_lru;
        tc "adam golden digest" `Quick test_adam_golden_digest;
        tc "fit with adam: one cut per step" `Quick test_lazy_fit_adam_one_cut;
        tc "fit with cosine sgd: one cut per step" `Quick test_lazy_fit_cosine_one_cut;
      ] );
  ]

let suite = suite @ auto_cut_suite @ lazy_step_suite
