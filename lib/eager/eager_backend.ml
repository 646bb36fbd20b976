(** The Eager Tensor (§3.2): an implementation of the Tensor API that
    dispatches each operation through an eager {!Runtime} the moment it is
    called. The concrete value is always available host-side (the reference
    kernels compute it synchronously), but the {e simulated} cost honors the
    asynchronous pipeline: only {!S.to_dense} pays the synchronization
    stall. *)

open S4o_tensor

module type RUNTIME = sig
  val rt : Runtime.t
end

module Make (R : RUNTIME) : Backend_intf.S = S4o_ops.Catalog.Backend (struct
  type t = Dense.t

  let name = "eager"
  let of_dense d = d

  let to_dense t =
    Runtime.sync R.rt;
    t

  let shape = Dense.shape
  let run op args = Runtime.dispatch R.rt op (Array.of_list args)
end)
