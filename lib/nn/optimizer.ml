(** Optimizers (§4.2): an optimizer "borrows the model uniquely, and updates
    it in-place based on the computed gradients" — here, each parameter slot
    is overwritten with its updated value after the backward pass. Optimizer
    state (momentum, Adam moments) lives in arrays parallel to the slot
    list. *)

open S4o_tensor

module Make (Bk : Backend_intf.S) = struct
  module L = Layer.Make (Bk)

  type t = {
    name : string;
    step : unit -> unit;
        (** Read each slot's gradient and update its data in place. Slots
            with no gradient (layer unused this step) are skipped. *)
    slots : L.Slot.t list;
    state : unit -> Bk.t list;
        (** Optimizer state tensors (momentum velocities, Adam moments).
            These are live across steps, so on the lazy backend they must be
            materialized by the step barrier — otherwise each step's trace
            drags the whole previous step's computation along with it. *)
  }

  let missing_grad slot =
    Format.ksprintf invalid_arg "optimizer: no gradient for slot %s"
      (L.Slot.label slot)

  (* Non-trainable slots (running statistics) are state, not parameters:
     skipped by every update rule. *)
  let wants_update slot = L.Slot.trainable slot

  (** A step-varying scalar as a one-element tensor, for [Bk.mul]. *)
  let scalar c = Bk.of_dense (Dense.scalar c)

  (** Plain SGD, optionally with classical momentum. *)
  let sgd ?(momentum = 0.0) ~lr layer =
    let slots = L.slots layer in
    let velocities = Array.make (List.length slots) None in
    let step () =
      List.iteri
        (fun i slot ->
          if wants_update slot then
          match L.Slot.grad slot with
          | None -> missing_grad slot
          | Some g ->
              let update =
                if momentum = 0.0 then Bk.scale lr g
                else begin
                  let v =
                    match velocities.(i) with
                    | None -> Bk.scale lr g
                    | Some v -> Bk.add (Bk.scale momentum v) (Bk.scale lr g)
                  in
                  velocities.(i) <- Some v;
                  v
                end
              in
              L.Slot.set_data slot (Bk.sub (L.Slot.data slot) update))
        slots
    in
    let state () =
      Array.to_list velocities |> List.filter_map Fun.id
    in
    { name = "sgd"; step; slots; state }

  (** Adam (Kingma & Ba), with bias correction. *)
  let adam ?(beta1 = 0.9) ?(beta2 = 0.999) ?(epsilon = 1e-8) ~lr layer =
    let slots = L.slots layer in
    let n = List.length slots in
    let m = Array.make n None and v = Array.make n None in
    let t = ref 0 in
    let step () =
      incr t;
      let tf = float_of_int !t in
      let bc1 = 1.0 -. (beta1 ** tf) and bc2 = 1.0 -. (beta2 ** tf) in
      (* The bias corrections change every step, so they go in as
         one-element tensors: as [scale] constants they would make every
         lazy step a new program. [mul] by a one-element tensor computes
         [c *. x], exactly what [scale c] does. *)
      let inv_bc1 = scalar (1.0 /. bc1) and inv_bc2 = scalar (1.0 /. bc2) in
      List.iteri
        (fun i slot ->
          if wants_update slot then
          match L.Slot.grad slot with
          | None -> missing_grad slot
          | Some g ->
              let mi =
                match m.(i) with
                | None -> Bk.scale (1.0 -. beta1) g
                | Some prev ->
                    Bk.add (Bk.scale beta1 prev) (Bk.scale (1.0 -. beta1) g)
              in
              let vi =
                let g2 = Bk.mul g g in
                match v.(i) with
                | None -> Bk.scale (1.0 -. beta2) g2
                | Some prev ->
                    Bk.add (Bk.scale beta2 prev) (Bk.scale (1.0 -. beta2) g2)
              in
              m.(i) <- Some mi;
              v.(i) <- Some vi;
              let m_hat = Bk.mul inv_bc1 mi in
              let v_hat = Bk.mul inv_bc2 vi in
              let denom = Bk.add_scalar epsilon (Bk.sqrt v_hat) in
              L.Slot.set_data slot
                (Bk.sub (L.Slot.data slot) (Bk.scale lr (Bk.div m_hat denom))))
        slots
    in
    let state () =
      List.filter_map Fun.id (Array.to_list m @ Array.to_list v)
    in
    { name = "adam"; step; slots; state }

  (** Every tensor the optimizer keeps live across steps — updated
      parameters plus optimizer state. For the lazy backend these are the
      roots the training loop passes to the barrier. *)
  let updated_params t = List.map L.Slot.data t.slots @ t.state ()
end
