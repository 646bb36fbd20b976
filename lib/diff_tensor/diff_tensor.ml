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
    work); each recorded entry knows how to push its adjoint into its
    parents. Gradients of broadcasts reduce back via [unbroadcast]. *)

module Make (B : S4o_tensor.Backend_intf.S) = struct
  type t = {
    id : int;
    value : B.t;
    mutable adj : B.t option;
    ctx : ctx option;
  }

  and entry = { node : t; push : B.t -> unit }

  and ctx = { mutable tape : entry list (* most recent first *) }

  let new_ctx () = { tape = [] }
  let value v = v.value
  let shape v = B.shape v.value
  let adjoint v = v.adj

  (** Overwrite a variable's accumulated adjoint — used by gradient
      post-processing such as clip-by-global-norm. *)
  let set_adjoint v g = v.adj <- Some g

  let counter = ref 0

  let fresh ctx value =
    incr counter;
    { id = !counter; value; adj = None; ctx }

  let const value = fresh None value

  (** A tracked variable: gradients will be accumulated for it. *)
  let param ctx value =
    let v = fresh (Some ctx) value in
    (* Parameters appear on the tape with no parents so [backward] can seed
       and find them; their push is a no-op. *)
    ctx.tape <- { node = v; push = (fun _ -> ()) } :: ctx.tape;
    v

  let merge_ctx a b =
    match (a.ctx, b.ctx) with
    | Some ca, Some cb ->
        if ca != cb then
          invalid_arg "Diff_tensor: mixing variables from two tapes";
        Some ca
    | (Some _ as s), None | None, (Some _ as s) -> s
    | None, None -> None

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
    match ctx with
    | None -> fresh None value
    | Some c ->
        let v = fresh ctx value in
        c.tape <- { node = v; push = pull } :: c.tape;
        v

  let unary a value pull = record a.ctx value pull

  let binary a b value pull = record (merge_ctx a b) value pull

  (** {1 Arithmetic (broadcasting, with [unbroadcast] adjoints)} *)

  let add a b =
    binary a b (B.add a.value b.value) (fun g ->
        accumulate a (fun () -> B.unbroadcast g (shape a));
        accumulate b (fun () -> B.unbroadcast g (shape b)))

  let sub a b =
    binary a b (B.sub a.value b.value) (fun g ->
        accumulate a (fun () -> B.unbroadcast g (shape a));
        accumulate b (fun () -> B.unbroadcast (B.neg g) (shape b)))

  let mul a b =
    binary a b (B.mul a.value b.value) (fun g ->
        accumulate a (fun () -> B.unbroadcast (B.mul g b.value) (shape a));
        accumulate b (fun () -> B.unbroadcast (B.mul g a.value) (shape b)))

  let div a b =
    binary a b (B.div a.value b.value) (fun g ->
        accumulate a (fun () -> B.unbroadcast (B.div g b.value) (shape a));
        accumulate b (fun () ->
            let gb = B.neg (B.div (B.mul g a.value) (B.mul b.value b.value)) in
            B.unbroadcast gb (shape b)))

  let neg a = unary a (B.neg a.value) (fun g -> accumulate a (fun () -> B.neg g))

  let scale c a =
    unary a (B.scale c a.value) (fun g -> accumulate a (fun () -> B.scale c g))

  let add_scalar c a =
    unary a (B.add_scalar c a.value) (fun g -> accumulate a (fun () -> g))

  (** {1 Nonlinearities} *)

  let relu a =
    unary a (B.relu a.value) (fun g -> accumulate a (fun () -> B.relu_grad a.value g))

  let sigmoid a =
    let s = B.sigmoid a.value in
    unary a s (fun g ->
        (* s * (1 - s) * g *)
        accumulate a (fun () ->
            let one_minus = B.add_scalar 1.0 (B.neg s) in
            B.mul g (B.mul s one_minus)))

  let tanh a =
    let th = B.tanh a.value in
    unary a th (fun g ->
        accumulate a (fun () ->
            let one_minus_sq = B.add_scalar 1.0 (B.neg (B.mul th th)) in
            B.mul g one_minus_sq))

  let exp a =
    let e = B.exp a.value in
    unary a e (fun g -> accumulate a (fun () -> B.mul g e))

  let log a =
    unary a (B.log a.value) (fun g -> accumulate a (fun () -> B.div g a.value))

  let sqrt a =
    let r = B.sqrt a.value in
    unary a r (fun g -> accumulate a (fun () -> B.div g (B.scale 2.0 r)))

  (** {1 Shape} *)

  let reshape a s =
    let orig = shape a in
    unary a (B.reshape a.value s) (fun g -> accumulate a (fun () -> B.reshape g orig))

  let transpose a =
    unary a (B.transpose a.value) (fun g -> accumulate a (fun () -> B.transpose g))

  let broadcast_to a s =
    unary a (B.broadcast_to a.value s) (fun g ->
        accumulate a (fun () -> B.unbroadcast g (shape a)))

  (** {1 Reductions} *)

  let sum_all a =
    unary a (B.sum_all a.value) (fun g ->
        accumulate a (fun () -> B.broadcast_to g (shape a)))

  let mean_all a =
    let n = float_of_int (S4o_tensor.Shape.numel (shape a)) in
    unary a (B.mean_all a.value) (fun g ->
        accumulate a (fun () -> B.scale (1.0 /. n) (B.broadcast_to g (shape a))))

  let sum_axes ?keep_dims a axes =
    let orig = shape a in
    unary a (B.sum_axes ?keep_dims a.value axes) (fun g ->
        (* adjoint of a sum: broadcast back, via the keep-dims shape *)
        let kept = S4o_tensor.Shape.reduce_axes ~keep_dims:true orig axes in
        accumulate a (fun () -> B.broadcast_to (B.reshape g kept) orig))

  (** {1 Linear algebra and NN ops} *)

  let matmul a b =
    binary a b (B.matmul a.value b.value) (fun g ->
        accumulate a (fun () -> B.matmul g (B.transpose b.value));
        accumulate b (fun () -> B.matmul (B.transpose a.value) g))

  let batch_matmul a b =
    binary a b
      (B.batch_matmul a.value b.value)
      (fun g ->
        accumulate a (fun () -> B.batch_matmul g (B.batch_transpose b.value));
        accumulate b (fun () -> B.batch_matmul (B.batch_transpose a.value) g))

  let batch_transpose a =
    unary a (B.batch_transpose a.value) (fun g ->
        accumulate a (fun () -> B.batch_transpose g))

  let conv2d ?stride ~padding x f =
    binary x f
      (B.conv2d ?stride ~padding x.value f.value)
      (fun g ->
        accumulate x (fun () ->
            B.conv2d_backward_input ?stride ~padding ~input_shape:(shape x)
              f.value g);
        accumulate f (fun () ->
            B.conv2d_backward_filter ?stride ~padding ~filter_shape:(shape f)
              x.value g))

  let avg_pool2d ~size ~stride a =
    unary a
      (B.avg_pool2d ~size ~stride a.value)
      (fun g ->
        accumulate a (fun () ->
            B.avg_pool2d_backward ~size ~stride ~input_shape:(shape a) g))

  let max_pool2d ~size ~stride a =
    unary a
      (B.max_pool2d ~size ~stride a.value)
      (fun g -> accumulate a (fun () -> B.max_pool2d_backward ~size ~stride a.value g))

  (** Fused numerically-stable softmax cross-entropy against one-hot labels:
      the gradient is the classic [(softmax(z) - y)/n] — one kernel, no
      O(classes) zero materialization. *)
  let softmax_cross_entropy ~labels logits =
    let log_probs = B.log_softmax logits.value in
    let n = float_of_int (shape logits).(0) in
    let nll =
      B.scale (-1.0 /. n) (B.sum_all (B.mul labels log_probs))
    in
    unary logits nll (fun g ->
        accumulate logits (fun () ->
            let probs = B.softmax logits.value in
            let diff = B.scale (1.0 /. n) (B.sub probs labels) in
            B.mul (B.broadcast_to g (shape logits)) diff))

  (** Mean-squared-error loss against a constant target. *)
  let mse ~target pred =
    let d = B.sub pred.value target in
    let n = float_of_int (S4o_tensor.Shape.numel (shape pred)) in
    unary pred
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
