(** [s4o] — command-line driver for the platform.

    - [s4o train]: train a model on a synthetic dataset on any of the three
      Tensor backends (§3's "switch by specifying a device").
    - [s4o trace]: print (or export as GraphViz) the LazyTensor trace of a
      model's forward pass, as in Figure 4.
    - [s4o spline]: run the on-device personalization workload of §5.1.3 and
      project Table 4's runtime styles.
    - [s4o serve]: run the inference-serving runtime (dynamic batching,
      replicas, SLO-aware shedding) against an open- or closed-loop load.

    [dune exec bin/s4o_cli.exe -- <command> --help] for options. *)

open Cmdliner

(* ------------------------------------------------------------------ train *)

type backend_kind = Naive | Eager | Lazy

let train_with (type bk) (module Bk : S4o_tensor.Backend_intf.S with type t = bk)
    ~after_step ~model_name ~epochs ~batch_size ~n ~lr ~seed ~report =
  let module M = S4o_nn.Models.Make (Bk) in
  let module T = S4o_nn.Train.Make (Bk) in
  let module O = S4o_nn.Optimizer.Make (Bk) in
  let rng = S4o_tensor.Prng.create seed in
  let dataset, model =
    match model_name with
    | "lenet" -> (S4o_data.Dataset.synthetic_mnist rng ~n, M.lenet rng)
    | "resnet-tiny" ->
        ( S4o_data.Dataset.synthetic_cifar10 rng ~n,
          M.resnet rng ~in_channels:3 (M.resnet_tiny_config ~classes:10) )
    | "mlp" ->
        (S4o_data.Dataset.two_arcs rng ~n, M.mlp rng ~inputs:2 ~hidden:32 ~outputs:2)
    | other -> Printf.ksprintf failwith "unknown model %s" other
  in
  let batches = S4o_data.Dataset.batches dataset ~batch_size ~shuffle_rng:rng in
  Printf.printf "%s on %s: %d parameters, %d batches of %d\n%!" model_name
    Bk.name (M.L.param_count model) (List.length batches) batch_size;
  let opt = O.adam ~lr model in
  let stats =
    T.fit ~epochs ~after_step
      ~log:(fun epoch s ->
        Printf.printf "epoch %d: loss=%.4f acc=%.1f%%\n%!" epoch s.T.mean_loss
          (100.0 *. s.T.accuracy))
      model opt batches
  in
  Printf.printf "final training accuracy: %.1f%%\n" (100.0 *. stats.T.accuracy);
  report ()

(* Unified post-training report: the same S4o_obs.Stats.t table for both
   accelerated runtimes, plus an optional Chrome-trace export of the
   engine's recorded timeline. *)
let report_observability ~runtime_name ~engine ~stats trace_out =
  Printf.printf "%s runtime stats (S4o_obs.Stats.t):\n%!" runtime_name;
  Format.printf "%a%!" S4o_obs.Stats.pp stats;
  match trace_out with
  | None -> ()
  | Some path -> (
      let recorder = S4o_device.Engine.recorder engine in
      match
        S4o_obs.Chrome_trace.to_file ~process:(runtime_name ^ " runtime") path
          recorder
      with
      | exception Sys_error msg ->
          Printf.eprintf "error: cannot write trace: %s\n" msg;
          exit 1
      | () -> (
          match
            S4o_obs.Chrome_trace.validate (S4o_obs.Chrome_trace.to_string recorder)
          with
          | Ok n ->
              Printf.printf
                "Chrome trace with %d events written to %s (load in \
                 chrome://tracing or ui.perfetto.dev)\n"
                n path
          | Error msg -> Printf.eprintf "internal error: bad trace export: %s\n" msg))

(* The engine keeps a timeline only when one is to be exported. *)
let traced_engine trace_out =
  S4o_device.Engine.create
    ~recorder:(S4o_obs.Recorder.create ~enabled:(trace_out <> None) ())
    S4o_device.Device_spec.gtx1080

let run_train backend model_name epochs batch_size n lr seed trace_out =
  match backend with
  | Naive ->
      train_with
        (module S4o_tensor.Naive_backend)
        ~after_step:(fun _ -> ())
        ~model_name ~epochs ~batch_size ~n ~lr ~seed
        ~report:(fun () ->
          if trace_out <> None then
            prerr_endline
              "note: --trace-out needs a simulated runtime; use --backend \
               eager or lazy")
  | Eager ->
      let engine = traced_engine trace_out in
      let rt = S4o_eager.Runtime.create engine in
      let module Bk = S4o_eager.Eager_backend.Make (struct
        let rt = rt
      end) in
      train_with
        (module Bk)
        ~after_step:(fun _ -> ())
        ~model_name ~epochs ~batch_size ~n ~lr ~seed
        ~report:(fun () ->
          report_observability ~runtime_name:"eager" ~engine
            ~stats:(S4o_eager.Runtime.stats rt) trace_out)
  | Lazy ->
      let engine = traced_engine trace_out in
      let rt = S4o_lazy.Lazy_runtime.create engine in
      let module Bk = S4o_lazy.Lazy_backend.Make (struct
        let rt = rt
      end) in
      train_with
        (module Bk)
        ~after_step:(fun ts -> Bk.barrier ts)
        ~model_name ~epochs ~batch_size ~n ~lr ~seed
        ~report:(fun () ->
          report_observability ~runtime_name:"lazy" ~engine
            ~stats:(S4o_lazy.Lazy_runtime.stats rt) trace_out)

let backend_conv =
  Arg.enum [ ("naive", Naive); ("eager", Eager); ("lazy", Lazy) ]

let train_cmd =
  let backend =
    Arg.(value & opt backend_conv Naive & info [ "backend" ] ~doc:"naive|eager|lazy")
  in
  let model =
    Arg.(value & opt string "lenet" & info [ "model" ] ~doc:"lenet|resnet-tiny|mlp")
  in
  let epochs = Arg.(value & opt int 2 & info [ "epochs" ]) in
  let batch = Arg.(value & opt int 32 & info [ "batch-size" ]) in
  let n = Arg.(value & opt int 256 & info [ "examples" ]) in
  let lr = Arg.(value & opt float 1e-3 & info [ "lr" ]) in
  let seed = Arg.(value & opt int 42 & info [ "seed" ]) in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ]
          ~doc:"Write the simulated timeline as Chrome trace-event JSON")
  in
  Cmd.v
    (Cmd.info "train" ~doc:"Train a model on a synthetic dataset")
    Term.(
      const run_train $ backend $ model $ epochs $ batch $ n $ lr $ seed
      $ trace_out)

(* ------------------------------------------------------------------ trace *)

let run_trace batch dot_file =
  let engine = S4o_device.Engine.create S4o_device.Device_spec.desktop_cpu in
  let rt = S4o_lazy.Lazy_runtime.create engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let module M = S4o_nn.Models.Make (Bk) in
  let rng = S4o_tensor.Prng.create 1 in
  let model = M.lenet rng in
  let images = Bk.placeholder [| batch; 28; 28; 1 |] in
  let ctx = M.L.D.new_ctx () in
  let logits = M.L.apply model ctx (M.L.D.const images) in
  let graph = Bk.capture [ M.L.D.value logits ] in
  print_endline (S4o_xla.Hlo.to_string graph);
  match dot_file with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (S4o_xla.Hlo.to_dot ~name:"lenet_forward" graph);
      close_out oc;
      Printf.printf "DOT written to %s\n" path

let trace_cmd =
  let batch = Arg.(value & opt int 1 & info [ "batch" ]) in
  let dot = Arg.(value & opt (some string) None & info [ "dot" ] ~doc:"write GraphViz file") in
  Cmd.v
    (Cmd.info "trace" ~doc:"Print the LazyTensor trace of LeNet's forward pass (Figure 4)")
    Term.(const run_trace $ batch $ dot)

(* ---------------------------------------------------------------- analyze *)

let write_file path content =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)

let capture_model model_name batch =
  let engine = S4o_device.Engine.create S4o_device.Device_spec.desktop_cpu in
  let rt = S4o_lazy.Lazy_runtime.create engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  let module M = S4o_nn.Models.Make (Bk) in
  let rng = S4o_tensor.Prng.create 1 in
  let model, input_shape =
    match model_name with
    | "lenet" -> (M.lenet rng, [| batch; 28; 28; 1 |])
    | "mlp" -> (M.mlp rng ~inputs:2 ~hidden:32 ~outputs:2, [| batch; 2 |])
    | other -> Printf.ksprintf failwith "unknown model %s" other
  in
  let input = Bk.placeholder input_shape in
  let ctx = M.L.D.new_ctx () in
  let logits = M.L.apply model ctx (M.L.D.const input) in
  Bk.capture [ M.L.D.value logits ]

(* The MSIL side of [analyze]: verify a small example module before and
   after the optimization passes, and the generated derivative code. *)
let analyze_sil () =
  let open S4o_sil in
  let b = Builder.create ~name:"mul_sin" ~n_args:2 in
  let m = Builder.binary b Ir.Mul (Builder.param b 0) (Builder.param b 1) in
  Builder.ret b (Builder.unary b Ir.Sin m);
  let f = Builder.finish b in
  let modul = Interp.create_module () in
  Interp.add modul f;
  let simplified = Passes.simplify f in
  (* Generated derivatives recompute primals the tangent may not need;
     verify them the way they ship — after dead-code elimination. *)
  let jvp = Passes.dead_code_elim (Codegen.generate_jvp modul f) in
  List.concat_map
    (fun (stage, fn) ->
      List.map
        (fun v -> (stage, v))
        (S4o_analysis.Verify.func fn))
    [ ("source", f); ("simplify", simplified); ("codegen+dce", jvp) ]

let run_analyze model_name batch sweep pending_limit json_out dot_out
    lints_as_errors =
  let module HC = S4o_analysis.Hlo_check in
  let graph = capture_model model_name batch in
  let findings = HC.check_graph ?pending_limit graph in
  let opt_graph, _ = S4o_xla.Opt.optimize graph in
  let opt_findings = HC.check_graph ?pending_limit opt_graph in
  let sweep_findings =
    match sweep with
    | [] -> []
    | batches ->
        let hz = HC.Hazard.create () in
        List.concat_map
          (fun b -> HC.Hazard.observe hz (capture_model model_name b))
          batches
  in
  let sil_violations = analyze_sil () in
  let report name g fs =
    Printf.printf "%s: %d nodes, %d params, %d errors, %d warnings\n" name
      (S4o_xla.Hlo.size g)
      (List.length (S4o_xla.Hlo.params g))
      (List.length (HC.errors fs))
      (List.length (HC.warnings fs));
    List.iter (fun f -> Format.printf "  %a@." HC.pp_finding f) fs
  in
  report (model_name ^ " forward") graph findings;
  report (model_name ^ " optimized") opt_graph opt_findings;
  List.iter (fun f -> Format.printf "  %a@." HC.pp_finding f) sweep_findings;
  Printf.printf "msil example module: %d violations\n"
    (List.length sil_violations);
  List.iter
    (fun (stage, v) ->
      Format.printf "  %s: %a@." stage S4o_analysis.Verify.pp_violation v)
    sil_violations;
  (match dot_out with
  | None -> ()
  | Some path ->
      write_file path (S4o_xla.Hlo.to_dot ~name:(model_name ^ "_forward") graph);
      Printf.printf "DOT written to %s\n" path);
  (match json_out with
  | None -> ()
  | Some path ->
      let json =
        S4o_obs.Json.Obj
          [
            ( "graphs",
              S4o_obs.Json.Arr
                [
                  HC.report_to_json ~graph_name:(model_name ^ " forward") graph
                    (findings @ sweep_findings);
                  HC.report_to_json
                    ~graph_name:(model_name ^ " optimized")
                    opt_graph opt_findings;
                ] );
            ( "msil_violations",
              S4o_obs.Json.Num (float_of_int (List.length sil_violations)) );
          ]
      in
      write_file path (S4o_obs.Json.to_string json);
      Printf.printf "JSON report written to %s\n" path);
  let all = findings @ opt_findings @ sweep_findings in
  let sil_errors =
    List.filter
      (fun (_, v) -> v.S4o_analysis.Verify.severity = S4o_analysis.Verify.Error)
      sil_violations
  in
  let fatal =
    HC.errors all <> [] || sil_errors <> []
    || (lints_as_errors && (HC.warnings all <> [] || sil_violations <> []))
  in
  if fatal then exit 1

let analyze_cmd =
  let model =
    Arg.(value & opt string "lenet" & info [ "model" ] ~doc:"lenet|mlp")
  in
  let batch = Arg.(value & opt int 1 & info [ "batch" ]) in
  let sweep =
    Arg.(
      value
      & opt (list int) []
      & info [ "shape-sweep" ]
          ~doc:
            "Capture the model at each listed batch size and report \
             recompile hazards (many fingerprints, one op skeleton)")
  in
  let pending_limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "pending-limit" ]
          ~doc:"Warn when a single cut exceeds this many nodes")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~doc:"Write the analysis report as JSON")
  in
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~doc:"Write the analyzed forward graph as GraphViz")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "lints-as-errors" ] ~doc:"Exit non-zero on any lint")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static analysis: HLO shape/arity checks and lints on a captured \
          model graph, plus MSIL verification of an example module")
    Term.(
      const run_analyze $ model $ batch $ sweep $ pending_limit $ json $ dot
      $ strict)

(* ----------------------------------------------------------------- spline *)

let run_spline knots data_points shift =
  let module Mr = S4o_mobile.Mobile_runtime in
  let rng = S4o_tensor.Prng.create 7 in
  let workload, _, stats =
    Mr.run_fine_tuning ~n_knots:knots ~n_data:data_points ~user_shift:shift rng
  in
  Printf.printf
    "fine-tuned for real: %d iterations, converged=%b, final loss %.2e\n\n"
    workload.Mr.iterations stats.S4o_spline.Line_search.converged
    stats.S4o_spline.Line_search.final_loss;
  Printf.printf "%-34s %10s %10s %10s\n" "runtime" "train ms" "mem MB" "binary MB";
  List.iter
    (fun style ->
      let r = Mr.simulate style workload in
      Printf.printf "%-34s %10.0f %10.1f %10.1f\n" (Mr.style_name style)
        r.Mr.train_ms r.Mr.memory_mb r.Mr.binary_mb)
    Mr.all_styles

let spline_cmd =
  let knots = Arg.(value & opt int 96 & info [ "knots" ]) in
  let data = Arg.(value & opt int 4000 & info [ "data-points" ]) in
  let shift = Arg.(value & opt float 0.4 & info [ "user-shift" ]) in
  Cmd.v
    (Cmd.info "spline" ~doc:"On-device spline personalization (Table 4 workload)")
    Term.(const run_spline $ knots $ data $ shift)

(* ---------------------------------------------------------------- profile *)

let export_trace ~process path recorder =
  match S4o_obs.Chrome_trace.to_file ~process path recorder with
  | exception Sys_error msg ->
      Printf.eprintf "error: cannot write trace: %s\n" msg;
      exit 1
  | () -> (
      match
        S4o_obs.Chrome_trace.validate (S4o_obs.Chrome_trace.to_string recorder)
      with
      | Ok n ->
          Printf.printf
            "Chrome trace with %d events written to %s (load in \
             chrome://tracing or ui.perfetto.dev)\n"
            n path
      | Error msg ->
          Printf.eprintf "internal error: bad trace export: %s\n" msg;
          exit 1)

(* The deep-profiling entry point: run a training workload with off-heap
   memory tracking on, then report the unified stats, the memory profile,
   the trace analysis (op profile + critical path), and the domain-pool
   busy fractions — with optional Chrome-trace / JSON / Prometheus dumps. *)
let run_profile backend model_name epochs batch_size n lr seed trace_out
    profile_out prom_out =
  let mem = S4o_obs.Memory.global in
  S4o_obs.Memory.reset mem;
  S4o_obs.Memory.set_enabled mem true;
  S4o_tensor.Pool.reset_stats ();
  (* The analysis and the tensor_live_bytes track read the timeline. *)
  let engine =
    S4o_device.Engine.create ~recorder:(S4o_obs.Recorder.create ())
      S4o_device.Device_spec.gtx1080
  in
  let finish ~runtime_name ~stats =
    let stats = stats () in
    let recorder = S4o_device.Engine.recorder engine in
    let report = S4o_obs.Analysis.of_recorder recorder in
    Printf.printf "\n%s runtime stats (S4o_obs.Stats.t):\n%!" runtime_name;
    Format.printf "%a%!" S4o_obs.Stats.pp stats;
    Printf.printf "\ntensor memory (off-heap):\n%!";
    Format.printf "%a%!" S4o_obs.Memory.pp mem;
    let m = S4o_device.Engine.metrics engine in
    (* Only the lazy runtime registers these: [Compiler.run]'s slab and
       the cuts' read-back. *)
    let counters = S4o_obs.Metrics.snapshot m in
    (match
       ( List.assoc_opt "xla.buffers_reused" counters,
         List.assoc_opt "xla.buffers_fresh" counters )
     with
    | Some (S4o_obs.Metrics.Counter_v reused), Some (S4o_obs.Metrics.Counter_v fresh) ->
        Printf.printf "  served from the slab      %d of %d allocations\n" reused
          (reused + fresh)
    | _ -> ());
    (match List.assoc_opt "lazy.recomputed_ops" counters with
    | Some (S4o_obs.Metrics.Counter_v n) ->
        Printf.printf "  recomputed by later cuts  %d ops\n" n
    | _ -> ());
    Printf.printf "\ntrace analysis:\n%!";
    Format.printf "%a%!" S4o_obs.Analysis.pp report;
    let ps = S4o_tensor.Pool.stats () in
    let fractions = S4o_tensor.Pool.busy_fractions ps in
    if ps.S4o_tensor.Pool.jobs > 0 then begin
      Printf.printf
        "\ndomain pool: %d parallel runs, %d chunks, %.3f s in flight\n"
        ps.S4o_tensor.Pool.jobs ps.S4o_tensor.Pool.chunks
        ps.S4o_tensor.Pool.run_wall_seconds;
      List.iter
        (fun (slot, f) ->
          Printf.printf "  domain %d busy %5.1f%%%s\n" slot (100.0 *. f)
            (if slot = 0 then " (caller)" else ""))
        fractions
    end
    else Printf.printf "\ndomain pool: no parallel runs (workload too small)\n";
    (* Fold the memory and pool readouts into the engine's metrics registry
       so the Prometheus exposition carries the whole profile. *)
    let set_gauge name v = S4o_obs.Metrics.set (S4o_obs.Metrics.gauge m name) v in
    set_gauge "memory.tensor_live_bytes"
      (float_of_int (S4o_obs.Memory.live_bytes mem));
    set_gauge "memory.tensor_peak_bytes"
      (float_of_int (S4o_obs.Memory.peak_bytes mem));
    set_gauge "memory.tensor_allocs"
      (float_of_int (S4o_obs.Memory.alloc_count mem));
    List.iter
      (fun (slot, f) ->
        set_gauge (Printf.sprintf "pool.domain%d.busy_fraction" slot) f)
      fractions;
    (match prom_out with
    | None -> ()
    | Some path -> (
        let text = S4o_obs.Prom.to_text m in
        match S4o_obs.Prom.samples_of_text text with
        | Ok samples ->
            write_file path text;
            Printf.printf "Prometheus exposition (%d samples) written to %s\n"
              (List.length samples) path
        | Error e ->
            Printf.eprintf "internal error: bad prometheus output: %s\n" e;
            exit 1));
    (match profile_out with
    | None -> ()
    | Some path ->
        let json =
          S4o_obs.Json.Obj
            [
              ("runtime", S4o_obs.Json.Str runtime_name);
              ("model", S4o_obs.Json.Str model_name);
              ("analysis", S4o_obs.Analysis.to_json report);
              ("memory", S4o_obs.Memory.to_json mem);
            ]
        in
        write_file path (S4o_obs.Json.to_string json);
        Printf.printf "profile JSON written to %s\n" path);
    (match trace_out with
    | None -> ()
    | Some path ->
        export_trace ~process:(runtime_name ^ " runtime") path recorder);
    S4o_obs.Memory.set_enabled mem false
  in
  match backend with
  | Naive ->
      prerr_endline
        "error: profile needs a simulated runtime; use --backend eager or lazy";
      exit 1
  | Eager ->
      let rt = S4o_eager.Runtime.create engine in
      let module Bk = S4o_eager.Eager_backend.Make (struct
        let rt = rt
      end) in
      train_with
        (module Bk)
        ~after_step:(fun _ -> ())
        ~model_name ~epochs ~batch_size ~n ~lr ~seed
        ~report:(fun () ->
          finish ~runtime_name:"eager" ~stats:(fun () ->
              S4o_eager.Runtime.stats rt))
  | Lazy ->
      let rt = S4o_lazy.Lazy_runtime.create engine in
      let module Bk = S4o_lazy.Lazy_backend.Make (struct
        let rt = rt
      end) in
      train_with
        (module Bk)
        ~after_step:(fun ts -> Bk.barrier ts)
        ~model_name ~epochs ~batch_size ~n ~lr ~seed
        ~report:(fun () ->
          finish ~runtime_name:"lazy" ~stats:(fun () ->
              S4o_lazy.Lazy_runtime.stats rt))

let profile_cmd =
  let backend =
    Arg.(
      value & opt backend_conv Lazy & info [ "backend" ] ~doc:"eager|lazy")
  in
  let model =
    Arg.(value & opt string "lenet" & info [ "model" ] ~doc:"lenet|resnet-tiny|mlp")
  in
  let epochs = Arg.(value & opt int 1 & info [ "epochs" ]) in
  let batch = Arg.(value & opt int 32 & info [ "batch-size" ]) in
  let n = Arg.(value & opt int 128 & info [ "examples" ]) in
  let lr = Arg.(value & opt float 1e-3 & info [ "lr" ]) in
  let seed = Arg.(value & opt int 42 & info [ "seed" ]) in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ]
          ~doc:
            "Write the timeline (with the tensor_live_bytes counter track) \
             as Chrome trace-event JSON")
  in
  let profile_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile-out" ]
          ~doc:"Write the trace analysis + memory profile as JSON")
  in
  let prom_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom-out" ]
          ~doc:"Write the metrics registry in Prometheus text format")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Train with deep profiling on: memory accounting, op profile, \
          critical path, Prometheus export")
    Term.(
      const run_profile $ backend $ model $ epochs $ batch $ n $ lr $ seed
      $ trace_out $ profile_out $ prom_out)

(* ------------------------------------------------------------------ serve *)

let strategy_conv =
  let parse s =
    match S4o_serve.Replica.strategy_of_string s with
    | Some st -> Ok st
    | None -> Error (`Msg (Printf.sprintf "unknown strategy %s" s))
  in
  Arg.conv (parse, fun ppf st -> Fmt.string ppf (S4o_serve.Replica.strategy_name st))

let policy_conv =
  let parse s =
    match S4o_serve.Server.policy_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown policy %s" s))
  in
  Arg.conv (parse, fun ppf p -> Fmt.string ppf (S4o_serve.Server.policy_name p))

let model_conv =
  let parse s =
    match S4o_serve.Model.of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "unknown model %s" s))
  in
  Arg.conv (parse, fun ppf m -> Fmt.string ppf (S4o_serve.Model.name m))

let run_serve model strategy device replicas max_batch batch_timeout_ms
    queue_capacity slo_ms policy rate burst clients requests seed trace_out
    prom_out =
  let open S4o_serve in
  let spec =
    match S4o_device.Device_spec.of_name device with
    | Some s -> s
    | None ->
        Printf.eprintf "error: unknown device %s\n" device;
        exit 1
  in
  let cfg =
    Server.default_config ~model ~strategy ~spec ~replicas ~max_batch
      ~batch_timeout:(batch_timeout_ms /. 1e3)
      ~queue_capacity ~slo:(slo_ms /. 1e3) ~policy ()
  in
  let workload =
    match clients with
    | Some clients ->
        Server.Closed_loop { clients; think = 1e-3; requests; seed }
    | None ->
        let process =
          match burst with
          | Some burst -> Load_gen.Bursty { rate; burst }
          | None -> Load_gen.Poisson { rate }
        in
        Server.Open_loop { process; requests; seed }
  in
  let t = Server.run cfg workload in
  Format.printf "%a%!" Serve_stats.pp (Server.stats t);
  (match prom_out with
  | None -> ()
  | Some path -> (
      let text = S4o_obs.Prom.to_text (Server.metrics t) in
      match S4o_obs.Prom.samples_of_text text with
      | Ok samples ->
          write_file path text;
          Printf.printf "Prometheus exposition (%d samples) written to %s\n"
            (List.length samples) path
      | Error e ->
          Printf.eprintf "internal error: bad prometheus output: %s\n" e;
          exit 1));
  match trace_out with
  | None -> ()
  | Some path -> (
      match
        S4o_obs.Chrome_trace.processes_to_file path (Server.recorders t)
      with
      | exception Sys_error msg ->
          Printf.eprintf "error: cannot write trace: %s\n" msg;
          exit 1
      | () -> (
          match
            S4o_obs.Chrome_trace.validate
              (S4o_obs.Chrome_trace.processes_to_string (Server.recorders t))
          with
          | Ok n ->
              Printf.printf
                "Chrome trace with %d events written to %s (load in \
                 chrome://tracing or ui.perfetto.dev)\n"
                n path
          | Error msg ->
              Printf.eprintf "internal error: bad trace export: %s\n" msg))

let serve_cmd =
  let model =
    Arg.(
      value
      & opt model_conv S4o_serve.Model.Lenet
      & info [ "model" ] ~doc:"lenet|resnet-tiny|mlp")
  in
  let strategy =
    Arg.(
      value
      & opt strategy_conv S4o_serve.Replica.lazy_tensor
      & info [ "strategy" ] ~doc:"lazy|eager|pytorch")
  in
  let device =
    Arg.(value & opt string "gtx1080" & info [ "device" ] ~doc:"device spec name")
  in
  let replicas = Arg.(value & opt int 2 & info [ "replicas" ]) in
  let max_batch = Arg.(value & opt int 8 & info [ "max-batch" ]) in
  let timeout =
    Arg.(value & opt float 1.0 & info [ "batch-timeout-ms" ] ~doc:"batching window")
  in
  let queue = Arg.(value & opt int 64 & info [ "queue-capacity" ]) in
  let slo = Arg.(value & opt float 20.0 & info [ "slo-ms" ] ~doc:"latency deadline") in
  let policy =
    Arg.(
      value
      & opt policy_conv S4o_serve.Server.Least_loaded
      & info [ "policy" ] ~doc:"least-loaded|round-robin")
  in
  let rate =
    Arg.(value & opt float 8_000.0 & info [ "rate" ] ~doc:"open-loop arrivals/s")
  in
  let burst =
    Arg.(
      value
      & opt (some int) None
      & info [ "burst" ] ~doc:"bursty arrivals of this size (open loop)")
  in
  let clients =
    Arg.(
      value
      & opt (some int) None
      & info [ "clients" ] ~doc:"closed-loop clients (overrides --rate)")
  in
  let requests = Arg.(value & opt int 2_000 & info [ "requests" ]) in
  let seed = Arg.(value & opt int 11 & info [ "seed" ]) in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ]
          ~doc:"Write server + replica timelines as Chrome trace-event JSON")
  in
  let prom_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom-out" ]
          ~doc:"Write the server metrics registry in Prometheus text format")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve inference on simulated replicas with dynamic batching")
    Term.(
      const run_serve $ model $ strategy $ device $ replicas $ max_batch
      $ timeout $ queue $ slo $ policy $ rate $ burst $ clients $ requests
      $ seed $ trace_out $ prom_out)

let () =
  let doc = "Swift-for-TensorFlow-in-OCaml platform driver" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "s4o" ~doc)
          [ train_cmd; trace_cmd; analyze_cmd; spline_cmd; profile_cmd; serve_cmd ]))
