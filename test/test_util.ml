(** Shared helpers for the test suites. *)

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let check_close ?(eps = 1e-6) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_true msg b = Alcotest.(check bool) msg true b
let check_string = Alcotest.(check string)

let check_float_array ?(eps = 1e-6) msg expected actual =
  Alcotest.(check (array (float eps))) msg expected actual

let check_raises_any msg f =
  match f () with
  | _ -> Alcotest.failf "%s: expected an exception" msg
  | exception _ -> ()

(** Central finite difference of an [R^n -> R] function — the ground truth
    for gradient checking. *)
let finite_diff_grad ?(h = 1e-5) f (x : float array) =
  Array.mapi
    (fun i _ ->
      let xp = Array.copy x and xm = Array.copy x in
      xp.(i) <- x.(i) +. h;
      xm.(i) <- x.(i) -. h;
      (f xp -. f xm) /. (2.0 *. h))
    x

let tensor_testable =
  Alcotest.testable S4o_tensor.Dense.pp (S4o_tensor.Dense.allclose ~rtol:1e-5 ~atol:1e-7)

let check_tensor msg expected actual =
  Alcotest.check tensor_testable msg expected actual

(** [(xla.buffers_reused, xla.buffers_fresh)] as [engine]'s metrics count
    them so far. *)
let buffer_counts engine =
  let m = S4o_device.Engine.metrics engine in
  let count name = S4o_obs.Metrics.counter_value (S4o_obs.Metrics.counter m name) in
  (count "xla.buffers_reused", count "xla.buffers_fresh")

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(** [with_eager f]: [f] on a fresh eager stack — the backend, its runtime
    and its engine. Pass an enabled [recorder] to read the timeline. *)
let with_eager ?recorder f =
  let engine = S4o_device.Engine.create ?recorder S4o_device.Device_spec.gtx1080 in
  let rt = S4o_eager.Runtime.create engine in
  let module Bk = S4o_eager.Eager_backend.Make (struct
    let rt = rt
  end) in
  f (module Bk : S4o_tensor.Backend_intf.S) rt engine

(** [with_lazy f]: [f] on a fresh lazy stack, as {!with_eager}. *)
let with_lazy ?cache_enabled ?recorder f =
  let engine = S4o_device.Engine.create ?recorder S4o_device.Device_spec.gtx1080 in
  let rt = S4o_lazy.Lazy_runtime.create ?cache_enabled engine in
  let module Bk = S4o_lazy.Lazy_backend.Make (struct
    let rt = rt
  end) in
  f (module Bk : S4o_tensor.Backend_intf.S) rt engine
