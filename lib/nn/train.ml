(** The training loop of Figure 7: forward, loss, pullback seeded with 1,
    in-place optimizer update — and, on the lazy backend, an automatic
    [LazyTensorBarrier()] after the optimizer step (§3.4: "a training-loop
    library can automatically call LazyTensorBarrier() after the optimizer
    update step on behalf of the user"), injected here as the [after_step]
    hook so the loop itself stays backend-agnostic. *)

open S4o_tensor

module Make (Bk : Backend_intf.S) = struct
  module L = Layer.Make (Bk)
  module Opt = Optimizer.Make (Bk)

  type step_result = {
    loss : L.D.t;  (** Still lazy on the lazy backend. *)
    logits : L.D.t;
  }

  (** One training step on backend tensors already on device (the timing
      benchmarks pass placeholders). Does {e not} observe any tensor
      contents, so on the lazy backend the entire step (forward, backward,
      update) stays in one trace. *)
  let step_on_device model opt ~images ~labels =
    let ctx = L.D.new_ctx () in
    let logits = L.apply model ctx (L.D.const images) in
    let loss = L.D.softmax_cross_entropy ~labels logits in
    L.D.backward ctx loss;
    opt.Opt.step ();
    { loss; logits }

  (** As {!step_on_device}, transferring the images and then the labels. *)
  let step model opt ~images ~labels =
    let images = Bk.of_dense images in
    step_on_device model opt ~images ~labels:(Bk.of_dense labels)

  (** Batched inference entry point (the serving path): one forward pass
      with no tape or optimizer state. Does {e not} observe the result, so
      on the lazy backend the whole batch stays one pending trace — the
      serving runtime cuts it with a barrier, keeping each bucketed batch
      shape a single cache-able program. *)
  let predict model images =
    let ctx = L.D.new_ctx () in
    L.D.value (L.apply model ctx (L.D.const images))

  type epoch_stats = { mean_loss : float; accuracy : float }

  let accuracy_of_logits logits (labels : int array) =
    let probs = Bk.to_dense logits in
    let pred = Dense.argmax_rows probs in
    let correct = ref 0 in
    Array.iteri (fun i p -> if p = labels.(i) then incr correct) pred;
    float_of_int !correct /. float_of_int (Array.length labels)

  (** Full supervised training over pre-batched data.
      [after_step] receives the updated parameters plus the loss each step —
      the lazy backend's barrier hook. *)
  let fit ?(after_step = fun (_ : Bk.t list) -> ()) ?(epochs = 1)
      ?(log = fun (_ : int) (_ : epoch_stats) -> ()) model opt batches =
    let final = ref { mean_loss = Float.nan; accuracy = 0.0 } in
    for epoch = 1 to epochs do
      let losses = ref [] in
      let correct = ref 0 and total = ref 0 in
      List.iter
        (fun (images, one_hot, labels) ->
          let r = step model opt ~images ~labels:one_hot in
          after_step (L.D.value r.loss :: Opt.updated_params opt);
          let loss_value = Dense.item (Bk.to_dense (L.D.value r.loss)) in
          losses := loss_value :: !losses;
          let batch_acc = accuracy_of_logits (L.D.value r.logits) labels in
          correct := !correct + int_of_float (batch_acc *. float_of_int (Array.length labels));
          total := !total + Array.length labels)
        batches;
      let mean_loss =
        let l = !losses in
        List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))
      in
      let stats =
        { mean_loss; accuracy = float_of_int !correct /. float_of_int (max 1 !total) }
      in
      final := stats;
      log epoch stats
    done;
    !final
end
