type t = {
  name : string;
  per_op_host : float;
  per_step_host : float;
  staged : bool;
  fused : bool;
  kernel_efficiency : float;
}

(* Calibration notes (see EXPERIMENTS.md): per-op host costs are in the
   ranges measured for the real systems circa 2020 — TF-eager-style dynamic
   dispatch ~100+ us/op, PyTorch's C++ dispatcher ~10 us/op, LazyTensor trace
   recording ~10-20 us/op. Kernel efficiency is relative to the shared
   device spec: cuDNN-tuned kernels run a bit faster than XLA:GPU codegen on
   2016-era GPUs, and Table 2's TensorFlow ResNet-50 was the most
   aggressively tuned TPU codebase of the three. *)

let s4o_eager =
  {
    name = "S4O (eager)";
    per_op_host = 50e-6;
    per_step_host = 0.5e-3;
    staged = false;
    fused = false;
    kernel_efficiency = 0.60 (* cuDNN-class kernels, selected per-op *);
  }

let s4o_lazy =
  {
    name = "S4O (LazyTensor)";
    per_op_host = 16e-6 (* re-trace every iteration, §3.4 *);
    per_step_host = 0.8e-3 (* trace hash + cache lookup + materialize *);
    staged = false;
    fused = true;
    kernel_efficiency = 1.0 (* XLA codegen: the reference roofline *);
  }

let pytorch_like =
  {
    name = "PyTorch";
    per_op_host = 9e-6;
    per_step_host = 0.3e-3;
    staged = false;
    fused = false;
    kernel_efficiency = 0.34
      (* cuDNN-class kernels with library-internal conv+bn+relu fusion *);
  }

let tf_graph_like =
  {
    name = "TensorFlow";
    per_op_host = 0.0;
    per_step_host = 1.0e-3 (* session dispatch *);
    staged = true;
    fused = true;
    kernel_efficiency = 0.76 (* the heavily-optimized benchmark codebase *);
  }

let jax_like =
  {
    name = "JAX + Flax";
    per_op_host = 0.0;
    per_step_host = 0.4e-3;
    staged = true;
    fused = true;
    kernel_efficiency = 0.90;
  }

type breakdown = {
  host_seconds : float;
  device_seconds : float;
  step_seconds : float;
  kernels : int;
}

let compute_nodes (g : S4o_xla.Hlo.graph) =
  List.length
    (List.filter
       (fun (n : S4o_xla.Hlo.node) ->
         match n.S4o_xla.Hlo.role with
         | S4o_xla.Hlo.Compute _ -> true
         | S4o_xla.Hlo.Param _ | S4o_xla.Hlo.Literal _ -> false)
       g.S4o_xla.Hlo.nodes)

let step_time s ~device ~graph =
  let device_seconds, kernels =
    if s.fused then begin
      let exe = S4o_xla.Compiler.compile graph in
      ( S4o_xla.Compiler.estimated_run_time device exe,
        (S4o_xla.Compiler.stats exe).S4o_xla.Compiler.clusters )
    end
    else begin
      let infos =
        List.filter_map
          (fun (n : S4o_xla.Hlo.node) ->
            match n.S4o_xla.Hlo.role with
            | S4o_xla.Hlo.Compute o -> Some o.info
            | S4o_xla.Hlo.Param _ | S4o_xla.Hlo.Literal _ -> None)
          graph.S4o_xla.Hlo.nodes
      in
      ( List.fold_left
          (fun acc info -> acc +. S4o_device.Device_spec.kernel_time device info)
          0.0 infos,
        List.length infos )
    end
  in
  let device_seconds = device_seconds *. s.kernel_efficiency in
  let host_seconds =
    s.per_step_host
    +. if s.staged then 0.0
       else float_of_int (compute_nodes graph) *. s.per_op_host
  in
  {
    host_seconds;
    device_seconds;
    step_seconds = Float.max host_seconds device_seconds;
    kernels;
  }

let throughput ~batch b = float_of_int batch /. b.step_seconds
