(** Learning-rate schedules and gradient clipping.

    Table 1's ResNet-50 run notes "algorithmic tweaks inspired by fastai" —
    warmup and annealed learning rates are the canonical such tweak, so the
    platform provides the standard schedule vocabulary. A schedule maps the
    (1-based) step index to a learning rate; {!scheduled} adapts any
    lr-taking optimizer constructor into a scheduled one. *)

open S4o_tensor

type t = int -> float

(** A constant rate. *)
let constant lr : t = fun _ -> lr

(** Linear warmup from 0 to [lr] over [steps], then constant. *)
let warmup ~steps ~lr : t =
 fun step -> if step >= steps then lr else lr *. float_of_int step /. float_of_int steps

(** Step decay: multiply by [factor] every [every] steps. *)
let step_decay ~lr ~factor ~every : t =
 fun step -> lr *. (factor ** float_of_int ((step - 1) / every))

(** Cosine annealing from [lr] to [lr_min] over [total] steps (fastai-style,
    clamped at [lr_min] afterwards). *)
let cosine ~lr ~lr_min ~total : t =
 fun step ->
  if step >= total then lr_min
  else
    lr_min
    +. (0.5 *. (lr -. lr_min)
       *. (1.0 +. Float.cos (Float.pi *. float_of_int (step - 1) /. float_of_int total)))

(** [compose warmup_steps schedule]: linear warmup into any schedule. *)
let with_warmup ~steps (inner : t) : t =
 fun step ->
  let target = inner step in
  if step >= steps then target
  else target *. float_of_int step /. float_of_int steps

module Make (Bk : Backend_intf.S) = struct
  module L = Layer.Make (Bk)
  module O = Optimizer.Make (Bk)

  (** Global L2 norm of all gradients on the layer's slots. Observes tensor
      contents (synchronizing on accelerated backends), as real
      clip-by-global-norm does. *)
  let global_grad_norm layer =
    let acc =
      List.fold_left
        (fun acc slot ->
          match L.Slot.grad slot with
          | None -> acc
          | Some g ->
              let d = Bk.to_dense g in
              acc +. Dense.sum (Dense.mul d d))
        0.0 (L.slots layer)
    in
    Float.sqrt acc

  (** Scale every gradient so the global norm is at most [max_norm]. Returns
      the pre-clip norm. Must run after [backward] and before the optimizer
      step; clipping rewrites each slot's adjoint. The factor goes in as a
      tensor ({!O.scalar}), as it changes from step to step. *)
  let clip_global_norm ~max_norm layer =
    let norm = global_grad_norm layer in
    if norm > max_norm && norm > 0.0 then begin
      let factor = O.scalar (max_norm /. norm) in
      List.iter
        (fun slot ->
          match L.Slot.grad slot with
          | None -> ()
          | Some g -> L.Slot.set_grad slot (Bk.mul factor g))
        (L.slots layer)
    end;
    norm

  (** Wrap an optimizer so each [step] consults the schedule: implemented by
      rebuilding the update with the scheduled rate via SGD semantics.
      [scheduled_sgd ?momentum schedule layer] mirrors {!O.sgd}, bit for
      bit. The rate changes from step to step, so it goes in as a tensor
      ({!O.scalar}) and a lazy step's program repeats. *)
  let scheduled_sgd ?(momentum = 0.0) (schedule : t) layer =
    let slots = L.slots layer in
    let velocities = Array.make (List.length slots) None in
    let step_count = ref 0 in
    let step () =
      incr step_count;
      let lr = O.scalar (schedule !step_count) in
      List.iteri
        (fun i slot ->
          if L.Slot.trainable slot then
          match L.Slot.grad slot with
          | None -> invalid_arg "scheduled_sgd: missing gradient"
          | Some g ->
              let update =
                if momentum = 0.0 then Bk.mul lr g
                else begin
                  let v =
                    match velocities.(i) with
                    | None -> Bk.mul lr g
                    | Some v -> Bk.add (Bk.scale momentum v) (Bk.mul lr g)
                  in
                  velocities.(i) <- Some v;
                  v
                end
              in
              L.Slot.set_data slot (Bk.sub (L.Slot.data slot) update))
        slots
    in
    let state () = Array.to_list velocities |> List.filter_map Fun.id in
    { O.name = "scheduled_sgd"; step; slots; state }
end
