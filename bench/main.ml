(** The benchmark harness: regenerates every table and figure in the paper's
    evaluation (§5), plus the Appendix B microbenchmark and the ablations
    called out in DESIGN.md.

    Hardware tables (1–3) report {e simulated} time from the device cost
    models (the substitution for TPU pods / a GTX 1080 / a Pixel 3);
    algorithmic results (Table 4's convergence, Appendix B, the ablations)
    run for real. Each table prints the paper's published number beside the
    reproduction so the shape comparison is direct.

    Usage: [main.exe] runs everything; [main.exe table1 table4 micro ...]
    selects sections. *)

module Spec = S4o_device.Device_spec
module Strategy = S4o_frameworks.Strategy

let imagenet_examples = 1_281_167
let per_core_batch = 128

(* Straggler jitter used by the Table 1/2 cluster workloads — one shared
   knob now that [Cluster.create] takes it as a parameter. *)
let tpu_straggler = S4o_device.Cluster.default_straggler

(* ---------------------------------------------------------------- Table 1 *)

let resnet50_capture = lazy (Workloads.capture_resnet50 ~batch:per_core_batch)

let table1 () =
  let w = Lazy.force resnet50_capture in
  let b = Strategy.step_time Strategy.s4o_lazy ~device:Spec.tpu_v3_core ~graph:w.Workloads.graph in
  let paper = [ (16, 78.1, 189.0, 10164.0, 635.25); (32, 77.7, 96.0, 20015.0, 625.47); (128, 77.8, 25.0, 77726.0, 607.23) ] in
  let rows =
    List.map
      (fun (cores, paper_acc, paper_min, paper_tput, paper_per_core) ->
        let cluster =
          S4o_device.Cluster.create ~straggler:tpu_straggler ~cores
            Spec.tpu_v3_core
        in
        let step =
          S4o_device.Cluster.step_time cluster ~compute:b.Strategy.device_seconds
            ~host:b.Strategy.host_seconds ~gradient_bytes:w.Workloads.grad_bytes
        in
        let tput = float_of_int (w.Workloads.batch * cores) /. step in
        let minutes = 90.0 *. float_of_int imagenet_examples /. tput /. 60.0 in
        [
          string_of_int cores;
          Printf.sprintf "%.1f%% (paper)" paper_acc;
          Printf.sprintf "%.0f / %.0f" paper_min minutes;
          Printf.sprintf "%.0f / %.0f" paper_tput tput;
          Printf.sprintf "%.1f / %.1f" paper_per_core (tput /. float_of_int cores);
        ])
      paper
  in
  Report.table ~title:"Table 1: ResNet-50 / ImageNet on simulated TPUv3 (S4O LazyTensor)"
    ~headers:
      [
        "# Cores";
        "Val acc";
        "Train min (paper/sim)";
        "ex/s (paper/sim)";
        "ex/s/core (paper/sim)";
      ]
    ~rows;
  Report.note
    "  per-core throughput is largely maintained 16 -> 128 cores; accuracy is \
     the paper's (not simulated).";
  Report.note "  step graph: %d HLO nodes, %d parameters."
    (S4o_xla.Hlo.size w.Workloads.graph) w.Workloads.param_count

(* ---------------------------------------------------------------- Table 2 *)

let table2 () =
  let w = Lazy.force resnet50_capture in
  let cores = 32 in
  (* Table 2's per-framework kernel efficiencies on TPU: the paper notes all
     three lower to equivalent XLA HLO but "some codebases have been better
     optimized for benchmark purposes". *)
  let entries =
    [
      ({ Strategy.jax_like with Strategy.kernel_efficiency = 0.87 }, 76.8, 90.0, 21258.0);
      ({ Strategy.tf_graph_like with Strategy.kernel_efficiency = 0.556 }, 77.9, 59.0, 33118.0);
      (Strategy.s4o_lazy, 77.7, 96.0, 20015.0);
    ]
  in
  let rows =
    List.map
      (fun (s, paper_acc, paper_min, paper_tput) ->
        let b = Strategy.step_time s ~device:Spec.tpu_v3_core ~graph:w.Workloads.graph in
        let cluster =
          S4o_device.Cluster.create ~straggler:tpu_straggler ~cores
            Spec.tpu_v3_core
        in
        let step =
          S4o_device.Cluster.step_time cluster ~compute:b.Strategy.device_seconds
            ~host:b.Strategy.host_seconds ~gradient_bytes:w.Workloads.grad_bytes
        in
        let tput = float_of_int (w.Workloads.batch * cores) /. step in
        let minutes = 90.0 *. float_of_int imagenet_examples /. tput /. 60.0 in
        [
          s.Strategy.name;
          Printf.sprintf "%.1f%% (paper)" paper_acc;
          Printf.sprintf "%.0f / %.0f" paper_min minutes;
          Printf.sprintf "%.0f / %.0f" paper_tput tput;
        ])
      entries
  in
  Report.table ~title:"Table 2: ResNet-50 / ImageNet on a simulated TPUv3-32 cluster"
    ~headers:[ "Framework"; "Val acc"; "Train min (paper/sim)"; "ex/s (paper/sim)" ]
    ~rows

(* ---------------------------------------------------------------- Table 3 *)

let table3 () =
  let w = Workloads.capture_resnet56 ~batch:128 in
  let entries =
    [
      (Strategy.pytorch_like, 2462.0);
      (Strategy.tf_graph_like, 2390.0);
      (Strategy.s4o_eager, 730.0);
      (Strategy.s4o_lazy, 1827.0);
    ]
  in
  let rows =
    List.map
      (fun (s, paper_tput) ->
        let b = Strategy.step_time s ~device:Spec.gtx1080 ~graph:w.Workloads.graph in
        let tput = Strategy.throughput ~batch:w.Workloads.batch b in
        [
          s.Strategy.name;
          Printf.sprintf "%.0f / %.0f" paper_tput tput;
          Printf.sprintf "%.1f" (b.Strategy.host_seconds *. 1e3);
          Printf.sprintf "%.1f" (b.Strategy.device_seconds *. 1e3);
          string_of_int b.Strategy.kernels;
        ])
      entries
  in
  Report.table
    ~title:"Table 3: ResNet-56 / CIFAR-10 on a simulated GTX 1080 (batch 128)"
    ~headers:
      [ "Framework"; "ex/s (paper/sim)"; "host ms/step"; "device ms/step"; "kernels" ]
    ~rows;
  Report.note
    "  eager is host-dispatch-bound; LazyTensor pays re-tracing but executes \
     fused kernels (%d nodes -> %d clusters)."
    (S4o_xla.Hlo.size w.Workloads.graph)
    (let b = Strategy.step_time Strategy.s4o_lazy ~device:Spec.gtx1080 ~graph:w.Workloads.graph in
     b.Strategy.kernels)

(* ---------------------------------------------------------------- Table 4 *)

let table4 () =
  let module Mr = S4o_mobile.Mobile_runtime in
  let rng = S4o_tensor.Prng.create 7 in
  let workload, spline, stats = Mr.run_fine_tuning ~user_shift:0.4 rng in
  let paper = function
    | Mr.Tf_mobile -> (5926.0, 80.0, 6.2)
    | Mr.Tf_lite -> (266.0, 12.3, 1.8)
    | Mr.Tf_lite_fused -> (63.0, 6.2, 1.8)
    | Mr.S4o_aot -> (128.0, 4.2, 3.6)
  in
  let rows =
    List.map
      (fun style ->
        let r = Mr.simulate style workload in
        let pt, pm, pb = paper style in
        [
          Mr.style_name style;
          Printf.sprintf "%.0f / %.0f" pt r.Mr.train_ms;
          Printf.sprintf "%.1f / %.1f" pm r.Mr.memory_mb;
          Printf.sprintf "%.1f / %.1f" pb r.Mr.binary_mb;
        ])
      Mr.all_styles
  in
  Report.table
    ~title:"Table 4: on-device spline fine-tuning (simulated Pixel-3-class CPU)"
    ~headers:
      [ "Platform"; "Train ms (paper/sim)"; "Memory MB (paper/sim)"; "Binary MB (paper/sim)" ]
    ~rows;
  Report.note
    "  fine-tuning ran for real: %d line-search iterations, %d f-evals, %d \
     grad-evals, converged=%b, final loss %.2e."
    workload.Mr.iterations workload.Mr.function_evals workload.Mr.gradient_evals
    stats.S4o_spline.Line_search.converged stats.S4o_spline.Line_search.final_loss;
  (* Verify the personalization learned the user shift, as the paper verified
     control points across implementations. *)
  let err =
    let xs = [ 0.3; 1.0; 1.7; 2.4 ] in
    List.fold_left
      (fun acc x ->
        Float.max acc
          (Float.abs
             (S4o_spline.Spline.eval spline x
             -. (S4o_spline.Spline.global_curve x +. 0.4))))
      0.0 xs
  in
  Report.note "  personalized spline max error vs shifted ground truth: %.3f." err

(* --------------------------------------------------------------- Figure 4 *)

let figure4 () =
  let w = Workloads.capture_lenet_forward ~batch:1 in
  Printf.printf "\n== Figure 4: LazyTensor trace of the LeNet-5 forward pass ==\n";
  Printf.printf "%s\n" (S4o_xla.Hlo.to_string w.Workloads.graph);
  let dot = S4o_xla.Hlo.to_dot ~name:"lenet_forward" w.Workloads.graph in
  let oc = open_out "figure4_lenet_trace.dot" in
  output_string oc dot;
  close_out oc;
  Report.note
    "  %d-node trace DAG written to figure4_lenet_trace.dot (GraphViz)."
    (S4o_xla.Hlo.size w.Workloads.graph)

(* ------------------------------------------------- Appendix B (Figure 9) *)

let time_per_call f ~calls =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to calls do
    f ()
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int calls

let appendix_b () =
  let module Sub = S4o_mvs.Subscript_ad in
  let sizes = [ 1_000; 10_000; 100_000; 1_000_000 ] in
  let rows =
    List.map
      (fun n ->
        let values = Array.init n float_of_int in
        let grad = Array.make n 0.0 in
        let calls = max 20 (2_000_000 / n) in
        let t_fun =
          time_per_call ~calls (fun () ->
              let _, pb = Sub.my_op_functional values 3 (n - 2) in
              ignore (pb 1.0))
        in
        let t_inout =
          time_per_call ~calls:200_000 (fun () ->
              let _, pb = Sub.my_op_inout values 3 (n - 2) in
              pb 1.0 grad)
        in
        [
          string_of_int n;
          Printf.sprintf "%.2f us" (t_fun *. 1e6);
          Printf.sprintf "%.4f us" (t_inout *. 1e6);
          Printf.sprintf "%.0fx" (t_fun /. t_inout);
        ])
      sizes
  in
  Report.table
    ~title:
      "Appendix B (Figure 9): myOp pullback, functional O(n) vs inout O(1) \
       (real wall-clock)"
    ~headers:[ "array size n"; "functional pullback"; "inout pullback"; "speedup" ]
    ~rows;
  Report.note
    "  the functional column grows linearly with n; the inout column is flat \
     — the mutable-value-semantics formulation restores the efficient-\
     gradient goal."

(* ------------------------------------------------------- Cache ablation *)

let ablation_cache () =
  let run ~cache_enabled =
    let engine = S4o_device.Engine.create Spec.gtx1080 in
    let rt = S4o_lazy.Lazy_runtime.create ~cache_enabled engine in
    let module Bk = S4o_lazy.Lazy_backend.Make (struct
      let rt = rt
    end) in
    let module M = S4o_nn.Models.Make (Bk) in
    let module T = S4o_nn.Train.Make (Bk) in
    let module O = S4o_nn.Optimizer.Make (Bk) in
    let rng = S4o_tensor.Prng.create 3 in
    let data = S4o_data.Dataset.synthetic_mnist rng ~n:160 in
    let batches = S4o_data.Dataset.batches data ~batch_size:32 in
    let model = M.lenet rng in
    let opt = O.sgd ~lr:0.05 model in
    let _ =
      T.fit ~epochs:2 ~after_step:(fun ts -> Bk.barrier ts) model opt batches
    in
    let st = S4o_lazy.Lazy_runtime.stats rt in
    (st, S4o_device.Engine.host_time engine)
  in
  let st_on, host_on = run ~cache_enabled:true in
  let st_off, host_off = run ~cache_enabled:false in
  Report.table ~title:"Ablation (S3.4): XLA-program cache on vs off (LeNet, 10 steps)"
    ~headers:[ "cache"; "traces"; "compiles"; "hits"; "sim host seconds" ]
    ~rows:
      [
        [
          "enabled";
          string_of_int st_on.S4o_lazy.Lazy_runtime.traces_cut;
          string_of_int st_on.S4o_lazy.Lazy_runtime.cache_misses;
          string_of_int st_on.S4o_lazy.Lazy_runtime.cache_hits;
          Printf.sprintf "%.3f" host_on;
        ];
        [
          "disabled";
          string_of_int st_off.S4o_lazy.Lazy_runtime.traces_cut;
          string_of_int st_off.S4o_lazy.Lazy_runtime.cache_misses;
          string_of_int st_off.S4o_lazy.Lazy_runtime.cache_hits;
          Printf.sprintf "%.3f" host_off;
        ];
      ];
  Report.note
    "  without the trace cache every step re-invokes the JIT: 'each unique \
     trace is only compiled by XLA once' is what keeps re-tracing viable."

(* ------------------------------------------------------- inout ablation *)

let ablation_inout () =
  let module I = S4o_mvs.Inout in
  let rng = S4o_tensor.Prng.create 11 in
  let model = I.synthetic_model rng ~layers:8 ~width:512 in
  let grads = I.synthetic_model rng ~layers:8 ~width:512 in
  let model_bytes = I.bytes_of_model model in
  (* Tensor payloads live in Bigarray storage outside the OCaml heap, so
     [Gc.allocated_bytes] cannot see them; account the freshly created
     tensors directly instead. *)
  let functional_alloc =
    float_of_int (I.bytes_of_model (I.functional_update model grads ~lr:0.01))
  in
  let inplace_alloc =
    I.inplace_update model grads ~lr:0.01;
    0.0
  in
  Report.table
    ~title:
      "Ablation (S4.2): optimizer update, functional (Model -> Model) vs \
       inout (inout Model -> Void)"
    ~headers:[ "update style"; "tensor bytes allocated per step"; "vs model size" ]
    ~rows:
      [
        [
          "functional";
          Printf.sprintf "%.0f" functional_alloc;
          Printf.sprintf "%.2fx" (functional_alloc /. float_of_int model_bytes);
        ];
        [
          "in-place (inout)";
          Printf.sprintf "%.0f" inplace_alloc;
          Printf.sprintf "%.4fx" (inplace_alloc /. float_of_int model_bytes);
        ];
      ];
  Report.note
    "  model size: %d bytes. The functional update materializes a second \
     model (copy + axpy, no scaled-gradient temporary); the inout update \
     allocates nothing — the S4.2 claim."
    model_bytes

(* ------------------------------------------------------ fusion ablation *)

let ablation_fusion () =
  let w = Workloads.capture_resnet56 ~batch:128 in
  let optimized, _ = S4o_xla.Opt.optimize w.Workloads.graph in
  let clusters = S4o_xla.Opt.fuse optimized in
  let time_of info = Spec.kernel_time Spec.gtx1080 info in
  let unfused =
    List.fold_left
      (fun acc (n : S4o_xla.Hlo.node) ->
        match n.S4o_xla.Hlo.role with
        | S4o_xla.Hlo.Compute o -> acc +. time_of o.info
        | S4o_xla.Hlo.Param _ | S4o_xla.Hlo.Literal _ -> acc)
      0.0 optimized.S4o_xla.Hlo.nodes
  in
  let fused =
    List.fold_left
      (fun acc (c : S4o_xla.Opt.cluster) -> acc +. time_of c.S4o_xla.Opt.info)
      0.0 clusters
  in
  Report.table ~title:"Ablation (S3.3): operation fusion benefit (ResNet-56 step)"
    ~headers:[ "execution"; "kernels"; "sim device ms" ]
    ~rows:
      [
        [
          "op-by-op";
          string_of_int
            (List.length
               (List.filter
                  (fun (n : S4o_xla.Hlo.node) ->
                    match n.S4o_xla.Hlo.role with
                    | S4o_xla.Hlo.Compute _ -> true
                    | _ -> false)
                  optimized.S4o_xla.Hlo.nodes));
          Printf.sprintf "%.1f" (unfused *. 1e3);
        ];
        [
          "XLA-fused";
          string_of_int (List.length clusters);
          Printf.sprintf "%.1f" (fused *. 1e3);
        ];
      ]

(* ----------------------------------------------- auto-cut ablation (S3.4) *)

let ablation_autocut () =
  let run threshold =
    let engine = S4o_device.Engine.create Spec.gtx1080 in
    let rt =
      S4o_lazy.Lazy_runtime.create ?auto_cut_threshold:threshold engine
    in
    let module Bk = S4o_lazy.Lazy_backend.Make (struct
      let rt = rt
    end) in
    let module M = S4o_nn.Models.Make (Bk) in
    let module T = S4o_nn.Train.Make (Bk) in
    let module O = S4o_nn.Optimizer.Make (Bk) in
    let rng = S4o_tensor.Prng.create 3 in
    let data = S4o_data.Dataset.synthetic_mnist rng ~n:160 in
    let batches = S4o_data.Dataset.batches data ~batch_size:32 in
    let model = M.lenet rng in
    let opt = O.sgd ~lr:0.05 model in
    (* NO manual barrier: with auto-cut on, the runtime dispatches on its
       own; without it, each step only executes when the loss is observed. *)
    let _ = T.fit ~epochs:1 model opt batches in
    let st = S4o_lazy.Lazy_runtime.stats rt in
    (st, st.S4o_lazy.Lazy_runtime.auto_cuts, S4o_device.Engine.host_time engine)
  in
  let rows =
    List.map
      (fun threshold ->
        let st, cuts, host = run threshold in
        [
          (match threshold with None -> "off (observe-only)" | Some n -> string_of_int n);
          string_of_int st.S4o_lazy.Lazy_runtime.traces_cut;
          string_of_int cuts;
          string_of_int st.S4o_lazy.Lazy_runtime.largest_trace;
          string_of_int st.S4o_lazy.Lazy_runtime.cache_misses;
          Printf.sprintf "%.3f" host;
        ])
      [ None; Some 200; Some 60; Some 25 ]
  in
  Report.table
    ~title:
      "Ablation (S3.4 future work): automatic trace cutting, no barrier \
       annotations (LeNet, 5 steps)"
    ~headers:
      [ "auto-cut threshold"; "traces"; "auto cuts"; "largest trace"; "compiles"; "sim host s" ]
    ~rows;
  Report.note
    "  without barriers ('off'), the un-observed optimizer updates accumulate \
     across steps: traces grow every iteration and each has a fresh \
     fingerprint, so every step recompiles. Automatic cutting bounds the \
     fragments and restores cache hits with zero annotations; too-small \
     thresholds fragment the program (less fusion scope, more compiles) — \
     the trade-off the paper left to future work."

(* --------------------------------------- eager pipeline ablation (S3.2) *)

let ablation_pipeline () =
  (* §3.2: as long as no tensor is observed, the host "runs ahead and fills a
     pipeline of accelerator kernel invocations". Sweep the per-op dispatch
     overhead on a fixed LeNet inference stream and report where execution
     flips from device-bound (pipeline full, overhead hidden) to host-bound
     (the Table 3 eager regime). *)
  let run overhead =
    let engine = S4o_device.Engine.create Spec.gtx1080 in
    let rt = S4o_eager.Runtime.create ~dispatch_overhead:overhead engine in
    let module Bk = S4o_eager.Eager_backend.Make (struct
      let rt = rt
    end) in
    let module M = S4o_nn.Models.Make (Bk) in
    let rng = S4o_tensor.Prng.create 5 in
    let model = M.lenet rng in
    let images = S4o_tensor.Dense.rand_normal rng [| 64; 28; 28; 1 |] in
    (* 20 forward passes, observing only the last *)
    let last = ref None in
    for _ = 1 to 20 do
      let ctx = M.L.D.new_ctx () in
      last := Some (M.L.apply model ctx (M.L.D.const (Bk.of_dense images)))
    done;
    (match !last with Some l -> ignore (Bk.to_dense (M.L.D.value l)) | None -> ());
    let host = S4o_device.Engine.host_time engine in
    let busy = S4o_device.Engine.device_busy_time engine in
    let stall = S4o_device.Engine.host_stall_time engine in
    (host, busy, stall)
  in
  let rows =
    List.map
      (fun overhead ->
        let host, busy, stall = run overhead in
        [
          Printf.sprintf "%.0f us" (overhead *. 1e6);
          Printf.sprintf "%.1f" (host *. 1e3);
          Printf.sprintf "%.1f" (busy *. 1e3);
          Printf.sprintf "%.1f" (stall *. 1e3);
          (if host > busy *. 1.2 then "host-bound" else "device-bound");
        ])
      [ 1e-6; 10e-6; 55e-6; 200e-6 ]
  in
  Report.table
    ~title:"Ablation (S3.2): eager dispatch overhead vs the async pipeline (LeNet inference x20)"
    ~headers:[ "per-op overhead"; "sim host ms"; "device busy ms"; "host stall ms"; "regime" ]
    ~rows;
  Report.note
    "  with cheap dispatch the host fills the pipeline and stalls waiting on \
     the device; past the crossover the device idles while the host \
     dispatches — the eager regime Table 3 measures."

(* --------------------------------------- static-compilation ablation (S3.5) *)

let ablation_static () =
  (* §3.5: graph program extraction must either fix the composition ahead of
     time or "pre-compile a large number of variants that exercise all
     possible combinations of the configuration space (which can be
     exponential)". Enumerate a ResNet-family configuration space, compare
     compiling every variant ahead of time against lazy tracing, which
     compiles only the variants a run actually uses. *)
  let depths = [ [ 1; 1 ]; [ 2; 2 ]; [ 3; 3 ]; [ 1; 2; 2 ]; [ 2; 2; 2 ] ] in
  let widths = [ [ 8; 16 ]; [ 16; 32 ]; [ 8; 16; 32 ] ] in
  let batches = [ 16; 32; 64 ] in
  let compatible d w = List.length d = List.length w in
  let variants =
    List.concat_map
      (fun d ->
        List.concat_map
          (fun w ->
            if compatible d w then List.map (fun b -> (d, w, b)) batches else [])
          widths)
      depths
  in
  let compile_cost_of (d, w, batch) =
    let engine = S4o_device.Engine.create Spec.desktop_cpu in
    let rt = S4o_lazy.Lazy_runtime.create engine in
    let module Bk = S4o_lazy.Lazy_backend.Make (struct
      let rt = rt
    end) in
    let module M = S4o_nn.Models.Make (Bk) in
    let module T = S4o_nn.Train.Make (Bk) in
    let module O = S4o_nn.Optimizer.Make (Bk) in
    let rng = S4o_tensor.Prng.create 1 in
    let cfg =
      {
        M.stem_channels = List.hd w;
        stem_kernel = 3;
        stem_stride = 1;
        stem_pool = false;
        stage_blocks = d;
        stage_channels = w;
        bottleneck = false;
        classes = 10;
      }
    in
    let model = M.resnet rng ~in_channels:3 cfg in
    let opt = O.sgd ~lr:0.1 model in
    let images = Bk.placeholder [| batch; 16; 16; 3 |] in
    let labels = Bk.placeholder [| batch; 10 |] in
    let r = T.step_on_device model opt ~images ~labels in
    let g = Bk.capture (M.L.D.value r.T.loss :: O.updated_params opt) in
    let exe = S4o_xla.Compiler.compile g in
    (S4o_xla.Compiler.stats exe).S4o_xla.Compiler.compile_seconds
  in
  let total_static =
    List.fold_left (fun acc v -> acc +. compile_cost_of v) 0.0 variants
  in
  (* a realistic run exercises a handful of variants, dynamically chosen *)
  let used = [ List.nth variants 0; List.nth variants 7; List.nth variants 13 ] in
  let total_lazy = List.fold_left (fun acc v -> acc +. compile_cost_of v) 0.0 used in
  Report.table
    ~title:
      "Ablation (S3.5): static graph-program extraction vs lazy tracing over \
       a ResNet-family configuration space"
    ~headers:[ "approach"; "variants compiled"; "sim compile seconds" ]
    ~rows:
      [
        [
          "static: precompile all combinations";
          string_of_int (List.length variants);
          Printf.sprintf "%.2f" total_static;
        ];
        [
          "lazy tracing: compile what runs";
          string_of_int (List.length used);
          Printf.sprintf "%.2f" total_lazy;
        ];
      ];
  Report.note
    "  the configuration space multiplies (depths x widths x batch shapes); \
     lazy tracing discovers the composition at runtime and compiles only \
     what the program actually executes."

(* ---------------------------------------- data-parallel demonstration *)

let ablation_dp () =
  (* Table 1's semantics executed for real at small scale: R replicas on
     shards produce bitwise the same trained parameters as one device on the
     global batch, while the cluster cost model prices the same step at pod
     scale. *)
  let module Dp = S4o_nn.Data_parallel.Make (S4o_tensor.Naive_backend) in
  let module M = S4o_nn.Models.Make (S4o_tensor.Naive_backend) in
  let build () = M.mlp (S4o_tensor.Prng.create 71) ~inputs:2 ~hidden:16 ~outputs:2 in
  let data = S4o_data.Dataset.two_arcs (S4o_tensor.Prng.create 72) ~n:64 in
  let images, labels =
    match S4o_data.Dataset.batches data ~batch_size:64 with
    | [ (i, l, _) ] -> (i, l)
    | _ -> failwith "expected one batch"
  in
  let weights_after replicas =
    let dp = Dp.create ~replicas build in
    for _ = 1 to 8 do
      ignore (Dp.train_step dp ~update:(Dp.sgd_update ~lr:0.2) ~images ~labels)
    done;
    ( S4o_tensor.Dense.to_array
        (Dp.L.Slot.data (List.hd (Dp.L.slots (Dp.chief dp)))),
      Dp.replicas_in_sync dp )
  in
  let w1, _ = weights_after 1 in
  let rows =
    List.map
      (fun replicas ->
        let w, in_sync = weights_after replicas in
        let max_dev =
          Array.fold_left Float.max 0.0
            (Array.mapi (fun i v -> Float.abs (v -. w1.(i))) w)
        in
        [
          string_of_int replicas;
          Printf.sprintf "%.2e" max_dev;
          string_of_bool in_sync;
        ])
      [ 1; 2; 4; 8 ]
  in
  Report.table
    ~title:
      "Data parallelism (Table 1 semantics, executed for real): R replicas \
       vs 1 device, 8 steps"
    ~headers:[ "replicas"; "max |w - w_single|"; "replicas in sync" ]
    ~rows;
  Report.note
    "  sharded gradients all-reduced and applied everywhere reproduce \
     single-device training to rounding; the pod-scale *cost* of the same \
     pattern is what Table 1's cluster model prices."

(* ------------------------------------------- observability timeline dump *)

let trace_out : string option ref = ref None

(* One real LeNet training step on each accelerated runtime, reported
   through the unified S4o_obs.Stats.t surface; with [--trace-out FILE], the
   two simulated timelines are exported side by side as one Chrome trace
   (host dispatch spans overlapping device kernel spans). *)
let timeline () =
  let batch_of rng =
    let data = S4o_data.Dataset.synthetic_mnist rng ~n:32 in
    S4o_data.Dataset.batches data ~batch_size:32
  in
  let train (type bk)
      (module Bk : S4o_tensor.Backend_intf.S with type t = bk)
      ~(after_step : bk list -> unit) =
    let module M = S4o_nn.Models.Make (Bk) in
    let module T = S4o_nn.Train.Make (Bk) in
    let module O = S4o_nn.Optimizer.Make (Bk) in
    let rng = S4o_tensor.Prng.create 3 in
    let batches = batch_of rng in
    let model = M.lenet rng in
    let opt = O.sgd ~lr:0.05 model in
    ignore (T.fit ~epochs:1 ~after_step model opt batches)
  in
  let eager_engine =
    S4o_device.Engine.create ~recorder:(S4o_obs.Recorder.create ()) Spec.gtx1080
  in
  let eager_rt = S4o_eager.Runtime.create eager_engine in
  let module Ebk = S4o_eager.Eager_backend.Make (struct
    let rt = eager_rt
  end) in
  train (module Ebk) ~after_step:(fun _ -> ());
  let lazy_engine =
    S4o_device.Engine.create ~recorder:(S4o_obs.Recorder.create ()) Spec.gtx1080
  in
  let lazy_rt = S4o_lazy.Lazy_runtime.create lazy_engine in
  let module Lbk = S4o_lazy.Lazy_backend.Make (struct
    let rt = lazy_rt
  end) in
  train (module Lbk) ~after_step:(fun ts -> Lbk.barrier ts);
  Report.stats_table
    ~title:
      "Observability: LeNet training step, unified runtime stats \
       (S4o_obs.Stats.t)"
    [
      ("eager", S4o_eager.Runtime.stats eager_rt);
      ("lazy", S4o_lazy.Lazy_runtime.stats lazy_rt);
    ];
  match !trace_out with
  | None ->
      Report.note
        "  pass --trace-out FILE to export both timelines as a Chrome trace."
  | Some path -> (
      let processes =
        [
          ("eager runtime", S4o_device.Engine.recorder eager_engine);
          ("lazy runtime", S4o_device.Engine.recorder lazy_engine);
        ]
      in
      match S4o_obs.Chrome_trace.processes_to_file path processes with
      | exception Sys_error msg ->
          Printf.eprintf "error: cannot write trace: %s\n" msg;
          exit 1
      | () -> (
          let contents =
            let ic = open_in path in
            let s = really_input_string ic (in_channel_length ic) in
            close_in ic;
            s
          in
          match S4o_obs.Chrome_trace.validate contents with
          | Ok n ->
              Report.note
                "  Chrome trace with %d events written to %s (load in \
                 chrome://tracing or ui.perfetto.dev)."
                n path
          | Error msg -> Printf.ksprintf failwith "invalid Chrome trace: %s" msg))

(* ----------------------------------------------------------- Serving -- *)

let serve_json = ref false

(* [--quick] shrinks the [kernels] section's problem sizes and measurement
   windows for CI. *)
let kernels_quick = ref false

(* The serving benchmark: batch x strategy x rate x replica sweeps over the
   lib/serve runtime. All time is simulated; [--json] additionally writes
   every swept configuration to BENCH_serve.json for CI trending. *)
let serve () =
  let open S4o_serve in
  let json_rows : S4o_obs.Json.t list ref = ref [] in
  let run ~sweep ?(model = Model.Lenet) ?(strategy = Replica.lazy_tensor)
      ?(spec = Spec.gtx1080) ?(replicas = 2) ?(max_batch = 8)
      ?(requests = 600) workload =
    let cfg =
      Server.default_config ~model ~strategy ~spec ~replicas ~max_batch
        ~record:false ()
    in
    let offered_rate, workload =
      match workload with
      | `Open rate ->
          ( rate,
            Server.Open_loop
              { process = Load_gen.Poisson { rate }; requests; seed = 11 } )
      | `Closed clients ->
          (0.0, Server.Closed_loop { clients; think = 1e-3; requests; seed = 11 })
    in
    let s = Server.stats (Server.run cfg workload) in
    json_rows :=
      S4o_obs.Json.Obj
        [
          ("sweep", S4o_obs.Json.Str sweep);
          ("offered_rate", S4o_obs.Json.Num offered_rate);
          ("device", S4o_obs.Json.Str spec.Spec.name);
          ("stats", Serve_stats.to_json s);
        ]
      :: !json_rows;
    s
  in
  let ms v = Printf.sprintf "%.2f" (1e3 *. v) in
  let pct v = Printf.sprintf "%.1f%%" (100.0 *. v) in

  (* 1. Dynamic batching: saturated throughput vs max_batch. The lazy trace
     cost is per batch, so capacity is b / (trace + b * device) — it climbs
     steeply while batches are trace-bound, then flattens as the device term
     takes over; p99 pays for every extra slot. ResNet on a CPU fleet makes
     the device term visible. *)
  let batch_rows =
    List.map
      (fun max_batch ->
        let s =
          run ~sweep:"max_batch" ~model:Model.Resnet_tiny ~spec:Spec.desktop_cpu
            ~max_batch (`Open 50_000.0)
        in
        [
          string_of_int max_batch;
          Printf.sprintf "%.0f" s.Serve_stats.throughput;
          ms s.Serve_stats.latency_p50;
          ms s.Serve_stats.latency_p99;
          pct (Serve_stats.shed_rate s);
          string_of_int s.Serve_stats.compiled_programs;
        ])
      [ 1; 2; 4; 8; 16; 32; 64 ]
  in
  Report.table
    ~title:
      "Serving 1: dynamic batching at saturation (ResNet-tiny, 2 simulated \
       CPU replicas, open loop 50k req/s)"
    ~headers:
      [ "max batch"; "req/s"; "p50 ms"; "p99 ms"; "shed"; "programs" ]
    ~rows:batch_rows;
  Report.note
    "  throughput rises while batches are trace-bound and flattens as device \
     time takes over. At saturation bigger batches also drain the bounded \
     queue faster, so the tail improves with batch size here; at moderate \
     rates the opposite holds (requests wait for company — the knee the \
     serve tests pin down). Bucketing keeps compiled programs at buckets x \
     replicas.";

  (* 2. Execution strategies under the same server: moderate load for
     latency, saturating load for capacity. *)
  let strategy_rows =
    List.map
      (fun strategy ->
        let s = run ~sweep:"strategy" ~strategy (`Open 4_000.0) in
        let sat = run ~sweep:"strategy-saturated" ~strategy (`Open 100_000.0) in
        [
          Replica.strategy_name strategy;
          ms s.Serve_stats.latency_p50;
          ms s.Serve_stats.latency_p99;
          Printf.sprintf "%.0f" sat.Serve_stats.throughput;
          string_of_int (s.Serve_stats.cache_hits + sat.Serve_stats.cache_hits);
          Printf.sprintf "%.2f s" s.Serve_stats.warmup_seconds;
        ])
      [ Replica.lazy_tensor; Replica.eager; Replica.pytorch_like ]
  in
  Report.table
    ~title:
      "Serving 2: execution strategies behind one server (LeNet, 2 simulated \
       GTX 1080 replicas, max batch 8)"
    ~headers:
      [
        "strategy"; "p50 ms @4k"; "p99 ms @4k"; "req/s saturated";
        "cache hits"; "warmup";
      ]
    ~rows:strategy_rows;
  Report.note
    "  the Table 3 ordering survives serving: 50us/op eager dispatch is \
     host-bound; LazyTensor re-traces per batch but executes fused kernels \
     from the warm program cache.";

  (* 3. Admission control: offered rate vs goodput. *)
  let rate_rows =
    List.map
      (fun rate ->
        let s = run ~sweep:"rate" (`Open rate) in
        [
          Printf.sprintf "%.0f" rate;
          Printf.sprintf "%.0f" s.Serve_stats.throughput;
          pct (Serve_stats.shed_rate s);
          string_of_int s.Serve_stats.slo_violations;
          ms s.Serve_stats.latency_p99;
          Printf.sprintf "%.3f s" s.Serve_stats.degraded_seconds;
        ])
      [ 2_000.0; 8_000.0; 16_000.0; 64_000.0; 256_000.0 ]
  in
  Report.table
    ~title:
      "Serving 3: offered rate vs goodput (LeNet, 2 GTX 1080 replicas, max \
       batch 8, 20 ms SLO)"
    ~headers:
      [ "offered req/s"; "goodput req/s"; "shed"; "SLO misses"; "p99 ms"; "degraded" ]
    ~rows:rate_rows;
  Report.note
    "  below saturation nothing is shed; past it the bounded queue rejects, \
     deadlines expire, and degraded mode shrinks the batch timeout to keep \
     goodput near capacity.";

  (* 4. Replica scaling at a fixed offered rate. *)
  let replica_rows =
    List.map
      (fun replicas ->
        let s = run ~sweep:"replicas" ~replicas (`Open 40_000.0) in
        [
          string_of_int replicas;
          Printf.sprintf "%.0f" s.Serve_stats.throughput;
          pct (Serve_stats.shed_rate s);
          ms s.Serve_stats.latency_p99;
          Printf.sprintf "%.2f" s.Serve_stats.mean_occupancy;
        ])
      [ 1; 2; 4 ]
  in
  Report.table
    ~title:
      "Serving 4: replica scaling, least-loaded placement (LeNet, open loop \
       40k req/s)"
    ~headers:[ "replicas"; "goodput req/s"; "shed"; "p99 ms"; "occupancy" ]
    ~rows:replica_rows;

  (* 5. Closed-loop clients: the classic saturation curve. *)
  let closed_rows =
    List.map
      (fun clients ->
        let s = run ~sweep:"closed-loop" (`Closed clients) in
        [
          string_of_int clients;
          Printf.sprintf "%.0f" s.Serve_stats.throughput;
          ms s.Serve_stats.latency_p50;
          ms s.Serve_stats.latency_p99;
        ])
      [ 4; 16; 64 ]
  in
  Report.table
    ~title:
      "Serving 5: closed-loop clients, 1 ms think time (LeNet, 2 GTX 1080 \
       replicas)"
    ~headers:[ "clients"; "req/s"; "p50 ms"; "p99 ms" ]
    ~rows:closed_rows;

  if !serve_json then begin
    let doc = S4o_obs.Json.Obj [ ("serve", S4o_obs.Json.Arr (List.rev !json_rows)) ] in
    let oc = open_out "BENCH_serve.json" in
    output_string oc (S4o_obs.Json.to_string doc);
    output_char oc '\n';
    close_out oc;
    Report.note "  wrote %d swept configurations to BENCH_serve.json."
      (List.length !json_rows)
  end

(* -------------------------------------------------- Bechamel microbench *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let module Sub = S4o_mvs.Subscript_ad in
  let values = Array.init 4096 float_of_int in
  let grad = Array.make 4096 0.0 in
  let rng = S4o_tensor.Prng.create 5 in
  let a = S4o_tensor.Dense.rand_normal rng [| 64; 64 |] in
  let b = S4o_tensor.Dense.rand_normal rng [| 64; 64 |] in
  let sil_ctx =
    let bld = S4o_sil.Builder.create ~name:"f" ~n_args:2 in
    let x = S4o_sil.Builder.param bld 0 and y = S4o_sil.Builder.param bld 1 in
    let xy = S4o_sil.Builder.binary bld S4o_sil.Ir.Mul x y in
    let sx = S4o_sil.Builder.unary bld S4o_sil.Ir.Sin x in
    S4o_sil.Builder.ret bld (S4o_sil.Builder.binary bld S4o_sil.Ir.Add xy sx);
    let f = S4o_sil.Builder.finish bld in
    let m = S4o_sil.Interp.create_module () in
    S4o_sil.Interp.add m f;
    S4o_sil.Transform.create_ctx m
  in
  let table4_workload =
    lazy
      (let rng = S4o_tensor.Prng.create 7 in
       let w, _, _ =
         S4o_mobile.Mobile_runtime.run_fine_tuning ~n_knots:16 ~n_data:200
           ~user_shift:0.4 rng
       in
       w)
  in
  let t1_graph = lazy (Lazy.force resnet50_capture) in
  let t3_graph = lazy (Workloads.capture_resnet56 ~batch:128) in
  let tests =
    [
      (* one Test.make per table *)
      Test.make ~name:"table1:tpu-cluster-step"
        (Staged.stage (fun () ->
             let w = Lazy.force t1_graph in
             let b =
               Strategy.step_time Strategy.s4o_lazy ~device:Spec.tpu_v3_core
                 ~graph:w.Workloads.graph
             in
             let cl =
               S4o_device.Cluster.create ~straggler:tpu_straggler ~cores:32
                 Spec.tpu_v3_core
             in
             S4o_device.Cluster.step_time cl ~compute:b.Strategy.device_seconds
               ~host:b.Strategy.host_seconds ~gradient_bytes:w.Workloads.grad_bytes));
      Test.make ~name:"table2:strategy-step-jax"
        (Staged.stage (fun () ->
             let w = Lazy.force t1_graph in
             Strategy.step_time Strategy.jax_like ~device:Spec.tpu_v3_core
               ~graph:w.Workloads.graph));
      Test.make ~name:"table3:strategy-step-gpu"
        (Staged.stage (fun () ->
             let w = Lazy.force t3_graph in
             Strategy.step_time Strategy.s4o_lazy ~device:Spec.gtx1080
               ~graph:w.Workloads.graph));
      Test.make ~name:"table4:mobile-simulate"
        (Staged.stage (fun () ->
             S4o_mobile.Mobile_runtime.(
               simulate Tf_lite (Lazy.force table4_workload))));
      (* platform micro-kernels *)
      Test.make ~name:"appendixB:functional-pullback-4096"
        (Staged.stage (fun () ->
             let _, pb = Sub.my_op_functional values 3 4000 in
             pb 1.0));
      Test.make ~name:"appendixB:inout-pullback"
        (Staged.stage (fun () ->
             let _, pb = Sub.my_op_inout values 3 4000 in
             pb 1.0 grad));
      Test.make ~name:"dense:matmul-64x64"
        (Staged.stage (fun () -> S4o_tensor.Dense.matmul a b));
      Test.make ~name:"autodiff:reverse-grad-rosenbrock"
        (Staged.stage (fun () ->
             S4o_core.Reverse.grad2
               (fun x y ->
                 let open S4o_core.Reverse.Infix in
                 let one = S4o_core.Reverse.const 1.0 in
                 let a = one - x in
                 let b = y - (x * x) in
                 (a * a) + (S4o_core.Reverse.scale 100.0 (b * b)))
               1.2 0.8));
      Test.make ~name:"sil:synthesized-gradient"
        (Staged.stage (fun () ->
             S4o_sil.Transform.gradient sil_ctx "f" [| 1.3; 0.7 |]));
    ]
  in
  let test = Test.make_grouped ~name:"s4o" ~fmt:"%s %s" tests in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~stabilize:true ()
    in
    let raw_results = Benchmark.all cfg instances test in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw_results) instances
    in
    Analyze.merge ols instances results
  in
  Printf.printf "\n== Bechamel microbenchmarks (real wall-clock) ==\n%!";
  let results = benchmark () in
  Hashtbl.iter
    (fun _clock tbl ->
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ t ] -> Printf.printf "  %-40s %12.1f ns/run\n" name t
          | _ -> Printf.printf "  %-40s (no estimate)\n" name)
        tbl)
    results

(* ------------------------------------------------- deep profiling section *)

(* The deep-profiling pillar end to end: train LeNet on the lazy runtime
   with off-heap memory accounting enabled, then render the op profile,
   the critical path, and the per-tag memory attribution as tables. *)
let profile () =
  let mem = S4o_obs.Memory.global in
  S4o_obs.Memory.reset mem;
  S4o_obs.Memory.set_enabled mem true;
  Fun.protect
    ~finally:(fun () -> S4o_obs.Memory.set_enabled mem false)
    (fun () ->
      let engine =
        S4o_device.Engine.create ~recorder:(S4o_obs.Recorder.create ()) Spec.gtx1080
      in
      let rt = S4o_lazy.Lazy_runtime.create engine in
      let module Bk = S4o_lazy.Lazy_backend.Make (struct
        let rt = rt
      end) in
      let module M = S4o_nn.Models.Make (Bk) in
      let module T = S4o_nn.Train.Make (Bk) in
      let module O = S4o_nn.Optimizer.Make (Bk) in
      let rng = S4o_tensor.Prng.create 3 in
      let data = S4o_data.Dataset.synthetic_mnist rng ~n:32 in
      let batches = S4o_data.Dataset.batches data ~batch_size:32 in
      let model = M.lenet rng in
      let opt = O.sgd ~lr:0.05 model in
      ignore
        (T.fit ~epochs:1 ~after_step:(fun ts -> Bk.barrier ts) model opt batches);
      let report =
        S4o_obs.Analysis.of_recorder (S4o_device.Engine.recorder engine)
      in
      let ms v = Printf.sprintf "%.3f ms" (1e3 *. v) in
      Report.table
        ~title:"Deep profiling: LeNet training step, op profile (lazy runtime)"
        ~headers:[ "op"; "track"; "count"; "total"; "self"; "% wall" ]
        ~rows:
          (List.map
             (fun (o : S4o_obs.Analysis.op_stat) ->
               [
                 o.name;
                 S4o_obs.Recorder.track_name o.track;
                 string_of_int o.count;
                 ms o.total_seconds;
                 ms o.self_seconds;
                 Printf.sprintf "%.1f%%" (100.0 *. o.wall_fraction);
               ])
             (S4o_obs.Analysis.top 10 report));
      Report.note "  wall clock      %s over %d spans" (ms report.wall_seconds)
        report.span_count;
      Report.note "  critical path   %s (%d spans, %.1f%% of wall)"
        (ms report.critical.seconds)
        (List.length report.critical.path)
        (if report.wall_seconds > 0.0 then
           100.0 *. report.critical.seconds /. report.wall_seconds
         else 0.0);
      Report.note "  host/device overlap %s, idle %s" (ms report.overlap_seconds)
        (ms report.idle_seconds);
      Report.table ~title:"Deep profiling: off-heap tensor memory by tag"
        ~headers:[ "tag"; "live"; "peak"; "allocs"; "frees" ]
        ~rows:
          (List.map
             (fun (s : S4o_obs.Memory.tag_stats) ->
               [
                 s.tag;
                 string_of_int s.live_bytes;
                 string_of_int s.peak_bytes;
                 string_of_int s.allocs;
                 string_of_int s.frees;
               ])
             (S4o_obs.Memory.tags mem));
      Report.note "  peak tensor bytes %d, %d allocs / %d frees, %d views"
        (S4o_obs.Memory.peak_bytes mem)
        (S4o_obs.Memory.alloc_count mem)
        (S4o_obs.Memory.free_count mem)
        (S4o_obs.Memory.view_count mem))

(* ------------------------------------------------------------------ main *)

let sections =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("figure4", figure4);
    ("appendixB", appendix_b);
    ("ablation-cache", ablation_cache);
    ("ablation-inout", ablation_inout);
    ("ablation-fusion", ablation_fusion);
    ("ablation-autocut", ablation_autocut);
    ("ablation-pipeline", ablation_pipeline);
    ("ablation-static", ablation_static);
    ("ablation-dp", ablation_dp);
    ("timeline", timeline);
    ("profile", profile);
    ("serve", serve);
    ("micro", micro);
    ( "kernels",
      fun () ->
        Kernels.run ~quick:!kernels_quick ~json:!serve_json
          ~trace_out:!trace_out () );
  ]

let () =
  (* Peel off [--trace-out FILE] (used by the [timeline] section) before
     dispatching on section names. *)
  let rec parse_args acc = function
    | [] -> List.rev acc
    | "--trace-out" :: path :: rest ->
        trace_out := Some path;
        parse_args acc rest
    | "--trace-out" :: [] ->
        prerr_endline "--trace-out requires a file argument";
        exit 1
    | "--json" :: rest ->
        serve_json := true;
        parse_args acc rest
    | "--quick" :: rest ->
        kernels_quick := true;
        parse_args acc rest
    | name :: rest -> parse_args (name :: acc) rest
  in
  let names = parse_args [] (List.tl (Array.to_list Sys.argv)) in
  let requested =
    match names with
    | [] when !trace_out <> None -> [ "timeline" ]
    | [] -> List.map fst sections
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown section %s; available: %s\n" name
            (String.concat ", " (List.map fst sections));
          exit 1)
    requested
