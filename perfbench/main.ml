(** The real-clock benchmark: one workload per process, one closed-loop
    caller.

    {v main.exe --workload NAME --seed N --seconds S --trace 0|1 v}

    [--trace 0] sets up at least five times, measures for [S] seconds
    untraced and prints the end-to-end metrics. [--trace 1] measures [S/2] seconds
    untraced and then [S/2] seconds behind the timing functor, and prints
    the per-layer metrics. Both check the outputs outside the timed phase.
    The last line of standard output is one JSON object. *)

open S4o_tensor
open Perfbench
module Lazy_runtime = S4o_lazy.Lazy_runtime

let workloads = [ "train-resnet-naive"; "train-resnet-lazy"; "infer-lenet-lazy" ]

(** Set-ups per [--trace 0] run: at least [min_setups], and more while
    they add up to under [setup_budget_s], up to [max_setups]. [setup_s]
    is their median, so a set-up of a few milliseconds gets enough samples
    for a steady median. *)
let min_setups = 5

let max_setups = 25
let setup_budget_s = 2.0

(** The ops the three workloads call, in the order the report lists them. *)
let op_names =
  [
    "conv2d"; "conv2d_backward_input"; "conv2d_backward_filter"; "matmul";
    "add"; "sub"; "mul"; "div"; "scale"; "add_scalar"; "sqrt"; "neg";
    "relu"; "relu_grad"; "broadcast_to"; "unbroadcast"; "sum_axes";
    "sum_all"; "reshape"; "transpose"; "softmax"; "log_softmax";
    "avg_pool2d";
  ]

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = { attempted : int; failed : int; metrics : metric list }

(* ---- measurement helpers ---- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.0

(* Best of [n] real-clock runs of [f]. *)
let best_of n f =
  let best = ref Float.infinity in
  for _ = 1 to n do
    let t0 = Probe.now () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (Probe.now () -. t0)
  done;
  !best

(** The lowest speed-up of the shipped kernel over [Reference], across the
    distinct operand shapes the traced run called. Below 1, the kernel
    loses to [Reference] at some shape a model runs. *)
let reference_ratios () =
  let rng = Prng.create 17 in
  let rand s = Dense.rand_normal rng s in
  let min_ratio pairs =
    List.fold_left (fun acc (kernel, reference) -> Float.min acc (reference /. kernel)) Float.infinity pairs
    |> fun r -> if Float.is_finite r then r else 0.0
  in
  let conv =
    Hashtbl.fold
      (fun (c : Probe.conv_call) () acc ->
        let x = rand c.x and f = rand c.f in
        let stride = c.stride and padding = c.padding in
        ( best_of 3 (fun () -> Naive_backend.conv2d ~stride ~padding x f),
          best_of 3 (fun () -> Reference.conv2d ~stride ~padding x f) )
        :: acc)
      Probe.conv_calls []
  in
  let matmul =
    Hashtbl.fold
      (fun (a, b) () acc ->
        let a = rand a and b = rand b in
        (best_of 3 (fun () -> Naive_backend.matmul a b), best_of 3 (fun () -> Reference.matmul a b))
        :: acc)
      Probe.matmul_calls []
  in
  (min_ratio conv, min_ratio matmul)

(* Everything the traced run measured that is not a step or request
   duration: the library's own counters, read before and after. *)
type snapshot = { t : float; gc : Gc.stat; lazy_stats : Lazy_runtime.stats option }

let snap rt =
  { t = Probe.now (); gc = Gc.quick_stat (); lazy_stats = Option.map Lazy_runtime.stats rt }

(** The per-layer metrics of a traced phase of [n] steps or requests. *)
let per_layer ~n ~durations ~untraced ~rt ~(before : snapshot) ~(after : snapshot)
    ~gen_s ~(pool : Pool.stats) ~kernels_visible ~reqs =
  let nf = float_of_int (max 1 n) in
  let per x = x /. nf in
  let sp name = Probe.seconds Probe.spans name in
  let ops =
    List.concat_map
      (fun op ->
        [
          m (Printf.sprintf "tensor.op.%s.s" op) "s" (per (Probe.seconds Probe.ops op));
          m (Printf.sprintf "tensor.op.%s.calls" op) "count"
            (per (float_of_int (Probe.calls Probe.ops op)));
        ])
      op_names
  in
  let gflops names =
    let flops, s =
      List.fold_left
        (fun (f, s) name ->
          match Hashtbl.find_opt Probe.ops name with
          | Some a -> (f +. a.Probe.flops, s +. a.Probe.s)
          | None -> (f, s))
        (0.0, 0.0) names
    in
    if kernels_visible && s > 0.0 then flops /. s /. 1e9 else 0.0
  in
  let conv_ref, matmul_ref = reference_ratios () in
  let op_s = Probe.op_seconds () in
  let backend_s = op_s +. sp "lazy.barrier" +. sp "lazy.force" in
  let phases = List.fold_left (fun acc p -> acc +. sp ("nn." ^ p)) 0.0 [ "forward"; "backward"; "optimizer"; "observe" ] in
  let nn_self = phases -. backend_s in
  let step_total = Array.fold_left ( +. ) 0.0 durations in
  let lz f =
    match (before.lazy_stats, after.lazy_stats) with
    | Some b, Some a -> f b a
    | _ -> 0.0
  in
  let delta f = lz (fun b a -> float_of_int (f a - f b)) in
  let hits = delta (fun s -> s.Lazy_runtime.cache_hits)
  and misses = delta (fun s -> s.Lazy_runtime.cache_misses) in
  let domains = float_of_int (Pool.default_domains ()) in
  let busy = Array.fold_left ( +. ) 0.0 pool.Pool.domain_busy_seconds in
  let wall = after.t -. before.t in
  ops
  @ [
      m "tensor.conv_gflops" "GFLOP/s" (gflops [ "conv2d"; "conv2d_backward_input"; "conv2d_backward_filter" ]);
      m "tensor.matmul_gflops" "GFLOP/s" (gflops [ "matmul"; "batch_matmul" ]);
      m "tensor.conv2d_vs_reference_min" "ratio" conv_ref;
      m "tensor.matmul_vs_reference_min" "ratio" matmul_ref;
      m "nn.forward_s" "s" (per (sp "nn.forward"));
      m "nn.backward_s" "s" (per (sp "nn.backward"));
      m "nn.optimizer_s" "s" (per (sp "nn.optimizer"));
      m "nn.observe_s" "s" (per (sp "nn.observe"));
      m "nn.self_s" "s" (per nn_self);
      m "lazy.record_s" "s" (if rt = None then 0.0 else per op_s);
      m "lazy.barrier_s" "s" (per (sp "lazy.barrier"));
      m "lazy.force_s" "s" (per (sp "lazy.force"));
      m "lazy.execute_s" "s" (per (sp "lazy.execute"));
      m "lazy.traces_cut" "count" (per (delta (fun s -> s.Lazy_runtime.traces_cut)));
      m "lazy.cache_hits" "count" (per hits);
      m "lazy.cache_misses" "count" (per misses);
      m "lazy.cache_misses_total" "count" misses;
      m "lazy.hit_ratio" "ratio" (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
      m "lazy.recompute_ratio" "ratio"
        (let recorded = Probe.op_calls () in
         if rt = None || recorded = 0 then 0.0
         else delta (fun s -> s.Lazy_runtime.ops_traced) /. float_of_int recorded);
      m "xla.to_hlo_s" "s" (per (sp "xla.to_hlo"));
      m "xla.fingerprint_s" "s" (per (sp "xla.fingerprint"));
      m "xla.optimize_s" "s" (per (sp "xla.optimize"));
      m "xla.fuse_s" "s" (per (sp "xla.fuse"));
      m "xla.compile_s" "s" (per (sp "xla.compile"));
      m "xla.input_nodes" "count" (per (Probe.counted "xla.input_nodes"));
      m "xla.clusters" "count" (per (Probe.counted "xla.clusters"));
      m "pool.domains" "count" domains;
      m "pool.jobs" "count" (per (float_of_int pool.Pool.jobs));
      m "pool.busy_frac" "ratio"
        (if pool.Pool.run_wall_seconds > 0.0 then busy /. (pool.Pool.run_wall_seconds *. domains) else 0.0);
      m "pool.wall_share" "ratio" (pool.Pool.run_wall_seconds /. wall);
      m "gc.minor_words" "words" (per (after.gc.Gc.minor_words -. before.gc.Gc.minor_words));
      m "gc.major_collections" "count"
        (per (float_of_int (after.gc.Gc.major_collections - before.gc.Gc.major_collections)));
      m "data.gen_s" "s" gen_s;
      (* Only measured spans count here, not the [nn_self] residual, so time
         the layer map cannot place lowers coverage instead of landing in
         [nn.self_s]. *)
      m "trace.coverage" "ratio" (if step_total > 0.0 then backend_s /. step_total else 0.0);
      m "trace.overhead_frac" "ratio" (Probe.median durations /. Probe.median untraced -. 1.0);
      m "trace.samples" "count" (float_of_int n);
      m "mix.distinct_sizes" "count" (float_of_int (Mix.distinct_sizes reqs));
      m "mix.fresh_sizes" "count" (float_of_int (Mix.fresh_sizes reqs));
    ]

(** Run [f] as the traced phase: fresh probes and pool counters, the
    library's counters read around it. [S4o_obs.Memory] stays off: with
    tracking on, sustained allocation kills the process (exit 2, no
    message), so [tensor.allocs_per_step] and [tensor.peak_bytes] are not
    measured. *)
let traced_phase rt f =
  Probe.reset ();
  Pool.reset_stats ();
  let before = snap rt in
  let r = f () in
  let after = snap rt in
  (r, before, after, Pool.stats ())

(* ---- workloads ---- *)

(** Throughput windows per run: [examples_per_s] is the median over this
    many runs of consecutive steps or requests, so a burst of contention
    from outside the process moves it less than a plain mean would. *)
let windows = 8

(** Set up repeatedly (see {!min_setups}) and keep the last world. Each
    set-up starts from a compacted heap, as in a fresh process, so that
    garbage from the one before does not bill it for collection work.
    [summary] gives a world's set-up time and a payload. Returns the world,
    the median set-up time and every set-up's payload. *)
let repeat_setup make summary =
  let rec go i total acc =
    Gc.compact ();
    let w = make () in
    let s, x = summary w in
    let acc = (s, x) :: acc and total = total +. s in
    if i < max_setups && (i < min_setups || total < setup_budget_s) then go (i + 1) total acc
    else (w, Probe.median (Array.of_list (List.map fst acc)), List.map snd acc)
  in
  go 1 0.0 []

let end_to_end ~examples ~durations ~setup_s =
  let n = Array.length durations in
  let k = min windows n in
  let rate w =
    let lo = w * n / k and hi = (w + 1) * n / k in
    let ex = ref 0 and s = ref 0.0 in
    for i = lo to hi - 1 do
      ex := !ex + examples i;
      s := !s +. durations.(i)
    done;
    float_of_int !ex /. !s
  in
  [
    m "examples_per_s" "examples/s" (Probe.median (Array.init k rate));
    m "step_s_p50" "s" (Probe.median durations);
    m "step_s_p99" "s" (Probe.quantile 0.99 durations);
    m "setup_s" "s" setup_s;
    m "peak_rss_mb" "MB" (peak_rss_mb ());
  ]

let train ~lazy_ ~seed ~seconds ~trace =
  let backend () = if lazy_ then Backends.fresh_lazy () else (module Backends.Naive : Backends.S) in
  let reference () =
    if lazy_ then Some (Train_wl.world (module Backends.Naive) ~seed) else None
  in
  let examples _ = Train_wl.batch_size in
  if not trace then begin
    let w, setup_s, digests =
      repeat_setup (fun () -> Train_wl.world (backend ()) ~seed) (fun w ->
          (w.Train_wl.setup_s, w.warm_digest))
    in
    let durations, failed =
      w.run ~deadline:(Probe.now () +. seconds) ~max_steps:max_int
    in
    let failed = failed + Train_wl.check ?reference:(reference ()) w ~digests in
    {
      attempted = Array.length durations;
      failed;
      metrics = end_to_end ~examples ~durations ~setup_s;
    }
  end
  else begin
    let w = Train_wl.world (backend ()) ~seed in
    let untraced, failed_u = w.run ~deadline:(Probe.now () +. (seconds /. 2.0)) ~max_steps:max_int in
    let traced_backend = if lazy_ then Backends.traced_lazy () else Backends.traced_naive in
    let module Bk = (val traced_backend) in
    let tw = Train_wl.world traced_backend ~seed in
    let (durations, failed_t), before, after, pool =
      traced_phase Bk.runtime (fun () -> tw.run_traced ~deadline:(Probe.now () +. (seconds /. 2.0)))
    in
    let metrics =
      per_layer ~n:(Array.length durations) ~durations ~untraced ~rt:Bk.runtime ~before ~after
        ~gen_s:tw.gen_s ~pool ~kernels_visible:(not lazy_) ~reqs:[||]
    in
    let failed =
      failed_u + failed_t + Train_wl.check ?reference:(reference ()) w ~digests:[ tw.warm_digest ]
    in
    { attempted = Array.length untraced + Array.length durations; failed; metrics }
  end

let infer ~seed ~seconds ~trace =
  let reference () = Infer_wl.world (module Backends.Naive) ~seed in
  let examples (w : Infer_wl.world) i = w.reqs.(i mod Array.length w.reqs).Mix.size in
  if not trace then begin
    let w, setup_s, _ =
      repeat_setup (fun () -> Infer_wl.world (Backends.fresh_lazy ()) ~seed) (fun w ->
          (w.Infer_wl.setup_s, ()))
    in
    let durations, failed = w.run ~deadline:(Probe.now () +. seconds) ~traced:false in
    let failed = failed + Infer_wl.check w ~reference:(reference ()) in
    {
      attempted = Array.length durations;
      failed;
      metrics = end_to_end ~examples:(examples w) ~durations ~setup_s;
    }
  end
  else begin
    let w = Infer_wl.world (Backends.fresh_lazy ()) ~seed in
    let untraced, failed_u = w.run ~deadline:(Probe.now () +. (seconds /. 2.0)) ~traced:false in
    let traced_backend = Backends.traced_lazy () in
    let module Bk = (val traced_backend) in
    let tw = Infer_wl.world traced_backend ~seed in
    let (durations, failed_t), before, after, pool =
      traced_phase Bk.runtime (fun () ->
          tw.run ~deadline:(Probe.now () +. (seconds /. 2.0)) ~traced:true)
    in
    let metrics =
      per_layer ~n:(Array.length durations) ~durations ~untraced ~rt:Bk.runtime ~before ~after
        ~gen_s:tw.gen_s ~pool ~kernels_visible:false ~reqs:tw.reqs
    in
    let failed = failed_u + failed_t + Infer_wl.check w ~reference:(reference ()) in
    { attempted = Array.length untraced + Array.length durations; failed; metrics }
  end

(* ---- output ---- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~workload r =
  List.iter
    (fun x -> Printf.printf "%-40s %-14s %s\n" (workload ^ " " ^ x.name) x.unit_ (json_number x.value))
    r.metrics;
  Printf.printf "%s attempted %d failed %d error_rate %s\n" workload r.attempted r.failed
    (json_number (float_of_int r.failed /. float_of_int (max 1 r.attempted)));
  let metrics =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
         r.metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0 && r.attempted > 0)
    (max 1 r.attempted) r.failed metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  let seed = !seed and seconds = !seconds and trace = !trace = 1 in
  let r =
    match !workload with
    | "train-resnet-naive" -> train ~lazy_:false ~seed ~seconds ~trace
    | "train-resnet-lazy" -> train ~lazy_:true ~seed ~seconds ~trace
    | "infer-lenet-lazy" -> infer ~seed ~seconds ~trace
    | w ->
        Printf.eprintf "unknown workload %S; expected one of %s\n" w (String.concat ", " workloads);
        exit 2
  in
  print_result ~workload:!workload r
