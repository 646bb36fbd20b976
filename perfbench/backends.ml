(** The backends the workloads run on: the library's own, untouched, for
    the untraced run, and the same backends behind a timing functor for the
    traced run. *)

open S4o_tensor
module Lazy_runtime = S4o_lazy.Lazy_runtime
module Lazy_backend = S4o_lazy.Lazy_backend

(** A backend plus the hook [Train.fit] calls after each optimizer step:
    the barrier on lazy, nothing on naive. [runtime] exposes the lazy
    runtime's counters. *)
module type S = sig
  include Backend_intf.S

  val after_step : t list -> unit
  val runtime : Lazy_runtime.t option
end

module Naive : S with type t = Dense.t = struct
  include Naive_backend

  let after_step _ = ()
  let runtime = None
end

(* A fresh runtime, and so an empty program cache. The device spec only
   drives the runtime's simulated clock, which this benchmark ignores. *)
let new_runtime () =
  Lazy_runtime.create (S4o_device.Engine.create S4o_device.Device_spec.gtx1080)

(** A lazy backend on a fresh runtime. *)
let fresh_lazy () : (module S) =
  let rt = new_runtime () in
  let module Lz = Lazy_backend.Make (struct
    let rt = rt
  end) in
  (module struct
    include Lz

    let after_step = barrier
    let runtime = Some rt
  end)

let conv_flops ~out ~filter =
  2.0 *. float_of_int (Shape.numel out) *. float_of_int (filter.(0) * filter.(1) * filter.(2))

let matmul_flops a b = 2.0 *. float_of_int (Shape.numel a) *. float_of_int b.(Array.length b - 1)

(** Times every op call into [Probe.ops]. Transfers are not ops: on lazy,
    [to_dense] is a cut and {!traced_lazy} times it as one. *)
module Timed (B : Backend_intf.S) : Backend_intf.S with type t = B.t = struct
  type t = B.t

  let name = B.name
  let of_dense = B.of_dense
  let to_dense = B.to_dense
  let shape = B.shape
  let op = Probe.op
  let add a b = op "add" (fun () -> B.add a b)
  let sub a b = op "sub" (fun () -> B.sub a b)
  let mul a b = op "mul" (fun () -> B.mul a b)
  let div a b = op "div" (fun () -> B.div a b)
  let neg a = op "neg" (fun () -> B.neg a)
  let scale c a = op "scale" (fun () -> B.scale c a)
  let add_scalar c a = op "add_scalar" (fun () -> B.add_scalar c a)
  let exp a = op "exp" (fun () -> B.exp a)
  let log a = op "log" (fun () -> B.log a)
  let sqrt a = op "sqrt" (fun () -> B.sqrt a)
  let relu a = op "relu" (fun () -> B.relu a)
  let sigmoid a = op "sigmoid" (fun () -> B.sigmoid a)
  let tanh a = op "tanh" (fun () -> B.tanh a)
  let relu_grad x g = op "relu_grad" (fun () -> B.relu_grad x g)
  let reshape a s = op "reshape" (fun () -> B.reshape a s)
  let transpose a = op "transpose" (fun () -> B.transpose a)
  let broadcast_to a s = op "broadcast_to" (fun () -> B.broadcast_to a s)
  let unbroadcast a s = op "unbroadcast" (fun () -> B.unbroadcast a s)
  let sum_axes ?keep_dims a axes = op "sum_axes" (fun () -> B.sum_axes ?keep_dims a axes)
  let sum_all a = op "sum_all" (fun () -> B.sum_all a)
  let mean_all a = op "mean_all" (fun () -> B.mean_all a)

  let matmul a b =
    Hashtbl.replace Probe.matmul_calls (B.shape a, B.shape b) ();
    let flops = matmul_flops (B.shape a) (B.shape b) in
    op "matmul" ~flops:(fun _ -> flops) (fun () -> B.matmul a b)

  let batch_matmul a b =
    let flops = matmul_flops (B.shape a) (B.shape b) in
    op "batch_matmul" ~flops:(fun _ -> flops) (fun () -> B.batch_matmul a b)

  let batch_transpose a = op "batch_transpose" (fun () -> B.batch_transpose a)

  let conv2d ?(stride = Backend_intf.default_conv_stride) ~padding x f =
    Hashtbl.replace Probe.conv_calls
      { Probe.x = B.shape x; f = B.shape f; stride; padding }
      ();
    op "conv2d"
      ~flops:(fun y -> conv_flops ~out:(B.shape y) ~filter:(B.shape f))
      (fun () -> B.conv2d ~stride ~padding x f)

  let conv2d_backward_input ?stride ~padding ~input_shape f g =
    op "conv2d_backward_input"
      ~flops:(fun _ -> conv_flops ~out:(B.shape g) ~filter:(B.shape f))
      (fun () -> B.conv2d_backward_input ?stride ~padding ~input_shape f g)

  let conv2d_backward_filter ?stride ~padding ~filter_shape x g =
    op "conv2d_backward_filter"
      ~flops:(fun _ -> conv_flops ~out:(B.shape g) ~filter:filter_shape)
      (fun () -> B.conv2d_backward_filter ?stride ~padding ~filter_shape x g)

  let avg_pool2d ?stride ~size a = op "avg_pool2d" (fun () -> B.avg_pool2d ?stride ~size a)

  let avg_pool2d_backward ?stride ~size ~input_shape g =
    op "avg_pool2d_backward" (fun () -> B.avg_pool2d_backward ?stride ~size ~input_shape g)

  let max_pool2d ?stride ~size a = op "max_pool2d" (fun () -> B.max_pool2d ?stride ~size a)

  let max_pool2d_backward ?stride ~size x g =
    op "max_pool2d_backward" (fun () -> B.max_pool2d_backward ?stride ~size x g)

  let softmax a = op "softmax" (fun () -> B.softmax a)
  let log_softmax a = op "log_softmax" (fun () -> B.log_softmax a)
end

let traced_naive : (module S) =
  (module struct
    include Timed (Naive_backend)

    let after_step _ = ()
    let runtime = None
  end)

(** The lazy backend behind {!Timed}, where op time is trace-recording
    time. Every cut (the barrier, and each [to_dense] that forces pending
    work) is captured for the XLA replay first, then timed; its execute
    time is the cut's time minus what the replay attributes to [to_hlo],
    fingerprinting and, when the runtime missed its cache, compiling. *)
let traced_lazy () : (module S) =
  let rt = new_runtime () in
  let module Lz = Lazy_backend.Make (struct
    let rt = rt
  end) in
  let cut name roots f =
    let c = Xla_replay.capture roots in
    let misses () = (Lazy_runtime.stats rt).Lazy_runtime.cache_misses in
    let m0 = misses () in
    let t0 = Probe.now () in
    let r = f () in
    let dt = Probe.now () -. t0 in
    let missed = misses () > m0 in
    Probe.add Probe.spans name dt;
    Probe.add Probe.spans "lazy.execute"
      (dt -. c.to_hlo -. c.fingerprint -. if missed then c.compile else 0.0);
    r
  in
  (module struct
    include Timed (Lz)

    let to_dense t = cut "lazy.force" [ t ] (fun () -> Lz.to_dense t)
    let after_step ts = cut "lazy.barrier" ts (fun () -> Lz.barrier ts)
    let runtime = Some rt
  end)
