(** Reverse-mode automatic differentiation over an arbitrary Tensor backend.

    This is the third AD mechanism in the platform (after the scalar runtime
    AD in [S4o_core] and the compile-time MSIL transform in [S4o_sil]) and
    the one the neural-network library trains with. It is a functor over
    {!S4o_tensor.Backend_intf.S}, which makes the paper's decoupling claim
    concrete: the same differentiation code runs unchanged over the naive,
    eager, and lazy Tensor implementations — on the lazy backend, the whole
    forward+backward computation is {e recorded into one trace} and compiled
    as a single fused XLA program.

    The tape is dynamic (define-by-run, like the runtimes of §6's related
    work). It holds no derivative rules of its own: each op is recorded with
    its {!S4o_ops.Catalog.kind}, and its adjoint is pushed into its parents
    by that kind's rule in {!S4o_ops.Catalog.Vjp}, which lives next to the
    op's shape, cost and kernel. Only the two fused losses below carry their
    own pullback. Gradients of broadcasts reduce back via [unbroadcast]. *)

module Make (B : S4o_tensor.Backend_intf.S) = struct
  module Vjp = S4o_ops.Catalog.Vjp (B)

  type t = { value : B.t; mutable adj : B.t option; ctx : ctx option }
  and entry = { node : t; push : B.t -> unit }
  and ctx = { mutable tape : entry list (* most recent first *) }

  let new_ctx () = { tape = [] }
  let value v = v.value
  let shape v = B.shape v.value
  let adjoint v = v.adj

  (** Overwrite a variable's accumulated adjoint — used by gradient
      post-processing such as clip-by-global-norm. *)
  let set_adjoint v g = v.adj <- Some g

  let const value = { value; adj = None; ctx = None }

  (** A tracked variable: gradients will be accumulated for it. *)
  let param ctx value =
    let v = { value; adj = None; ctx = Some ctx } in
    (* Parameters appear on the tape with no parents so [backward] can seed
       and find them; their push is a no-op. *)
    ctx.tape <- { node = v; push = (fun _ -> ()) } :: ctx.tape;
    v

  (* Constants (no tape) receive no adjoint. The contribution is a thunk
     that runs only for a tracked value, so a constant's pullback does no
     work — e.g. the conv backward-input kernel is never run for a constant
     input batch. *)
  let accumulate v contrib =
    match v.ctx with
    | None -> ()
    | Some _ -> (
        let c = contrib () in
        match v.adj with
        | None -> v.adj <- Some c
        | Some a -> v.adj <- Some (B.add a c))

  (* Record a result with a pullback that receives the result's adjoint. *)
  let record ctx value pull =
    let v = { value; adj = None; ctx } in
    Option.iter (fun c -> c.tape <- { node = v; push = pull } :: c.tape) ctx;
    v

  (* The tape all operands share, if any. *)
  let tape_of args =
    List.fold_left
      (fun acc a ->
        match (acc, a.ctx) with
        | Some ca, Some cb when ca != cb ->
            invalid_arg "Diff_tensor: mixing variables from two tapes"
        | Some _, _ -> acc
        | None, c -> c)
      None args

  (** [op kind args value]: record [value], the result of [kind] on [args],
      differentiated by the catalog's rule for [kind]. *)
  let op (kind : S4o_ops.Catalog.kind) args value =
    record (tape_of args) value (fun g ->
        let xs = List.map (fun a -> a.value) args in
        List.iter2 accumulate args (Vjp.pullback kind xs value g))

  let add a b = op Add [ a; b ] (B.add a.value b.value)
  let sub a b = op Sub [ a; b ] (B.sub a.value b.value)
  let mul a b = op Mul [ a; b ] (B.mul a.value b.value)
  let div a b = op Div [ a; b ] (B.div a.value b.value)
  let neg a = op Neg [ a ] (B.neg a.value)
  let scale c a = op (Scale c) [ a ] (B.scale c a.value)
  let add_scalar c a = op (Add_scalar c) [ a ] (B.add_scalar c a.value)
  let relu a = op Relu [ a ] (B.relu a.value)
  let sigmoid a = op Sigmoid [ a ] (B.sigmoid a.value)
  let tanh a = op Tanh [ a ] (B.tanh a.value)
  let exp a = op Exp [ a ] (B.exp a.value)
  let log a = op Log [ a ] (B.log a.value)
  let sqrt a = op Sqrt [ a ] (B.sqrt a.value)
  let reshape a s = op (Reshape s) [ a ] (B.reshape a.value s)
  let transpose a = op Transpose [ a ] (B.transpose a.value)
  let broadcast_to a s = op (Broadcast_to s) [ a ] (B.broadcast_to a.value s)
  let sum_all a = op Sum_all [ a ] (B.sum_all a.value)
  let mean_all a = op Mean_all [ a ] (B.mean_all a.value)

  let sum_axes ?(keep_dims = false) a axes =
    op (Sum_axes { axes; keep_dims }) [ a ] (B.sum_axes ~keep_dims a.value axes)

  let matmul a b = op Matmul [ a; b ] (B.matmul a.value b.value)
  let batch_matmul a b = op Batch_matmul [ a; b ] (B.batch_matmul a.value b.value)
  let batch_transpose a = op Batch_transpose [ a ] (B.batch_transpose a.value)

  let conv2d ?(stride = S4o_tensor.Backend_intf.default_conv_stride) ~padding x f =
    op (Conv2d { stride; padding }) [ x; f ] (B.conv2d ~stride ~padding x.value f.value)

  let avg_pool2d ~size ~stride a =
    op (Avg_pool2d { size; stride }) [ a ] (B.avg_pool2d ~size ~stride a.value)

  let max_pool2d ~size ~stride a =
    op (Max_pool2d { size; stride }) [ a ] (B.max_pool2d ~size ~stride a.value)

  (** Fused numerically-stable softmax cross-entropy against one-hot labels:
      the gradient is the classic [(softmax(z) - y)/n] — one kernel, no
      O(classes) zero materialization. *)
  let softmax_cross_entropy ~labels logits =
    let log_probs = B.log_softmax logits.value in
    let n = float_of_int (shape logits).(0) in
    let nll =
      B.scale (-1.0 /. n) (B.sum_all (B.mul labels log_probs))
    in
    record logits.ctx nll (fun g ->
        accumulate logits (fun () ->
            let probs = B.softmax logits.value in
            let diff = B.scale (1.0 /. n) (B.sub probs labels) in
            B.mul (B.broadcast_to g (shape logits)) diff))

  (** Mean-squared-error loss against a constant target. *)
  let mse ~target pred =
    let d = B.sub pred.value target in
    let n = float_of_int (S4o_tensor.Shape.numel (shape pred)) in
    record pred.ctx
      (B.scale (1.0 /. n) (B.sum_all (B.mul d d)))
      (fun g ->
        accumulate pred (fun () ->
            B.scale (2.0 /. n) (B.mul (B.broadcast_to g (shape pred)) d)))

  (** {1 Backward} *)

  (** [backward ctx loss] seeds the (scalar) loss adjoint with 1 and runs the
      tape once in reverse. Parameter adjoints are then available via
      {!adjoint}. *)
  let backward ctx loss =
    (match loss.ctx with
    | Some c when c == ctx -> ()
    | Some _ | None ->
        invalid_arg "Diff_tensor.backward: loss not recorded on this tape");
    loss.adj <-
      Some (B.broadcast_to (B.of_dense (S4o_tensor.Dense.scalar 1.0)) (shape loss));
    List.iter
      (fun e -> match e.node.adj with None -> () | Some g -> e.push g)
      ctx.tape

  (** Gradient with respect to a single input tensor: builds a one-off tape. *)
  let grad f x =
    let ctx = new_ctx () in
    let v = param ctx x in
    let loss = f v in
    backward ctx loss;
    ( value loss,
      match v.adj with
      | Some g -> g
      | None -> B.of_dense (S4o_tensor.Dense.zeros (S4o_tensor.Dense.shape (B.to_dense x))) )

  (** Number of tape entries on this context. *)
  let tape_length ctx = List.length ctx.tape
end
