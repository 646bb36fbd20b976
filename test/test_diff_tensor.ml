(** Tests for the tape-based tensor AD functor: gradient checks against
    central finite differences for every differentiable op, broadcasting
    adjoints, and the decoupling claim — the same AD code produces identical
    gradients over all three Tensor backends. *)

open S4o_tensor
module D = S4o_diff_tensor.Diff_tensor.Make (Naive_backend)

(* Finite-difference gradient of a scalar-valued tensor function. *)
let fd_grad ?(h = 1e-5) f (x : Dense.t) =
  Dense.init_flat (Dense.shape x) (fun i ->
      let xp = Dense.set_flat x i (Dense.get_flat x i +. h) in
      let xm = Dense.set_flat x i (Dense.get_flat x i -. h) in
      (f xp -. f xm) /. (2.0 *. h))

(* AD gradient of the same function written against the D ops. *)
let ad_grad f_ad x =
  let _, g = D.grad (fun v -> f_ad v) x in
  g

let check_grad ?(eps = 1e-3) name f_plain f_ad x =
  let fd = fd_grad f_plain x in
  let ad = ad_grad f_ad x in
  if not (Dense.allclose ~rtol:eps ~atol:1e-6 fd ad) then
    Alcotest.failf "%s: AD %s vs FD %s" name (Dense.to_string ad)
      (Dense.to_string fd)

let rngs seed = Prng.create seed

(* {1 Per-op gradient checks} *)

let test_grad_elementwise () =
  let x = Dense.rand_normal (rngs 1) [| 6 |] in
  check_grad "sum(exp x)" (fun x -> Dense.sum (Dense.exp x))
    (fun v -> D.sum_all (D.exp v))
    x;
  check_grad "sum(sigmoid x)"
    (fun x -> Dense.sum (Dense.sigmoid x))
    (fun v -> D.sum_all (D.sigmoid v))
    x;
  check_grad "sum(tanh x)"
    (fun x -> Dense.sum (Dense.tanh x))
    (fun v -> D.sum_all (D.tanh v))
    x;
  check_grad "mean(x*x)"
    (fun x -> Dense.mean (Dense.mul x x))
    (fun v -> D.mean_all (D.mul v v))
    x

let test_grad_sqrt_log () =
  let x = Dense.rand_uniform (rngs 2) ~lo:0.5 ~hi:2.0 [| 5 |] in
  check_grad "sum(sqrt x)"
    (fun x -> Dense.sum (Dense.sqrt x))
    (fun v -> D.sum_all (D.sqrt v))
    x;
  check_grad "sum(log x)"
    (fun x -> Dense.sum (Dense.log x))
    (fun v -> D.sum_all (D.log v))
    x

let test_grad_relu () =
  (* keep away from the kink *)
  let x = Dense.of_array [| 4 |] [| -1.5; -0.2; 0.3; 2.0 |] in
  check_grad "sum(relu x)"
    (fun x -> Dense.sum (Dense.relu x))
    (fun v -> D.sum_all (D.relu v))
    x

let test_grad_matmul () =
  let g = rngs 3 in
  let x = Dense.rand_normal g [| 3; 4 |] in
  let w = Dense.rand_normal g [| 4; 2 |] in
  check_grad "matmul wrt lhs"
    (fun x -> Dense.sum (Dense.matmul x w))
    (fun v -> D.sum_all (D.matmul v (D.const w)))
    x;
  check_grad "matmul wrt rhs"
    (fun w -> Dense.sum (Dense.matmul x w))
    (fun v -> D.sum_all (D.matmul (D.const x) v))
    w

let test_grad_broadcast_add () =
  let g = rngs 4 in
  let x = Dense.rand_normal g [| 3; 4 |] in
  let b = Dense.rand_normal g [| 4 |] in
  (* gradient w.r.t. the broadcast bias must sum over the batch axis *)
  check_grad "bias grad sums batch"
    (fun b -> Dense.sum (Dense.mul (Dense.add x b) (Dense.add x b)))
    (fun v ->
      let s = D.add (D.const x) v in
      D.sum_all (D.mul s s))
    b

let test_grad_conv2d () =
  let g = rngs 5 in
  let x = Dense.rand_normal g [| 1; 5; 5; 2 |] in
  let f = Dense.rand_normal g [| 3; 3; 2; 2 |] in
  let padding = Convolution.Same in
  check_grad "conv wrt input"
    (fun x ->
      let y = Convolution.conv2d ~padding x f in
      Dense.sum (Dense.mul y y))
    (fun v ->
      let y = D.conv2d ~padding v (D.const f) in
      D.sum_all (D.mul y y))
    x;
  check_grad "conv wrt filter"
    (fun f ->
      let y = Convolution.conv2d ~padding x f in
      Dense.sum (Dense.mul y y))
    (fun v ->
      let y = D.conv2d ~padding (D.const x) v in
      D.sum_all (D.mul y y))
    f

let test_grad_pools () =
  let g = rngs 6 in
  let x = Dense.rand_normal g [| 1; 4; 4; 2 |] in
  check_grad "avg pool"
    (fun x ->
      let y = Convolution.avg_pool2d ~size:(2, 2) ~stride:(2, 2) x in
      Dense.sum (Dense.mul y y))
    (fun v ->
      let y = D.avg_pool2d ~size:(2, 2) ~stride:(2, 2) v in
      D.sum_all (D.mul y y))
    x;
  check_grad "max pool"
    (fun x ->
      let y = Convolution.max_pool2d ~size:(2, 2) ~stride:(2, 2) x in
      Dense.sum (Dense.mul y y))
    (fun v ->
      let y = D.max_pool2d ~size:(2, 2) ~stride:(2, 2) v in
      D.sum_all (D.mul y y))
    x

let test_grad_reshape_transpose () =
  let g = rngs 7 in
  let x = Dense.rand_normal g [| 2; 6 |] in
  check_grad "through reshape"
    (fun x ->
      let r = Dense.reshape x [| 3; 4 |] in
      Dense.sum (Dense.mul r r))
    (fun v ->
      let r = D.reshape v [| 3; 4 |] in
      D.sum_all (D.mul r r))
    x;
  check_grad "through transpose"
    (fun x ->
      let t = Dense.transpose x in
      Dense.sum (Dense.mul t t))
    (fun v ->
      let t = D.transpose v in
      D.sum_all (D.mul t t))
    x

let test_grad_sum_axes () =
  let g = rngs 8 in
  let x = Dense.rand_normal g [| 3; 4 |] in
  check_grad "sum over axis then square"
    (fun x ->
      let s = Dense.sum_axes x [ 0 ] in
      Dense.sum (Dense.mul s s))
    (fun v ->
      let s = D.sum_axes v [ 0 ] in
      D.sum_all (D.mul s s))
    x

let test_grad_div () =
  let g = rngs 9 in
  let x = Dense.rand_uniform g ~lo:0.5 ~hi:2.0 [| 5 |] in
  let y = Dense.rand_uniform g ~lo:0.5 ~hi:2.0 [| 5 |] in
  check_grad "div wrt numerator"
    (fun x -> Dense.sum (Dense.div x y))
    (fun v -> D.sum_all (D.div v (D.const y)))
    x;
  check_grad "div wrt denominator"
    (fun y -> Dense.sum (Dense.div x y))
    (fun v -> D.sum_all (D.div (D.const x) v))
    y

let test_grad_softmax_cross_entropy () =
  let g = rngs 10 in
  let logits = Dense.rand_normal g [| 4; 3 |] in
  let labels =
    Dense.one_hot ~classes:3 (Dense.of_array [| 4 |] [| 0.; 2.; 1.; 1. |])
  in
  (* reference loss: -mean over batch of sum(labels * log_softmax) *)
  let plain z =
    let lp = Dense.log_softmax z in
    -.(Dense.sum (Dense.mul labels lp)) /. 4.0
  in
  check_grad "softmax CE" plain
    (fun v -> D.softmax_cross_entropy ~labels v)
    logits;
  (* and the closed form: (softmax - labels)/n *)
  let _, grad = D.grad (fun v -> D.softmax_cross_entropy ~labels v) logits in
  let expected = Dense.scale 0.25 (Dense.sub (Dense.softmax logits) labels) in
  Test_util.check_tensor "closed-form CE gradient" expected grad

let test_grad_mse () =
  let g = rngs 11 in
  let pred = Dense.rand_normal g [| 6 |] in
  let target = Dense.rand_normal g [| 6 |] in
  check_grad "mse"
    (fun p ->
      let d = Dense.sub p target in
      Dense.sum (Dense.mul d d) /. 6.0)
    (fun v -> D.mse ~target v)
    pred

(* {1 Pullback digests}

   Every operand cotangent of every differentiable op, hashed over its whole
   buffer, on naive from fixed seeds. A rule that is moved or rewritten
   must keep each one bit for bit. The output cotangent [g] reaches the op
   unchanged through [sum_all (y * g)]. *)

let digest t = Dense.hash_contents ~prefix:max_int t

let one f = function [ a ] -> f a | _ -> invalid_arg "one operand"
let two f = function [ a; b ] -> f a b | _ -> invalid_arg "two operands"
let conv ~stride ~padding = two (D.conv2d ~stride ~padding)

(* Name, operand shapes, whether the operands must be positive (log, sqrt,
   a divisor), the op, and the digest of each operand's cotangent. *)
let pullback_golden =
  let labels = Dense.one_hot ~classes:5 (Dense.of_array [| 4 |] [| 0.; 3.; 1.; 4. |]) in
  let target = Dense.init_flat [| 3; 4 |] (fun i -> float_of_int i /. 7.0) in
  [
    ("add", [ [| 3; 4 |]; [| 3; 4 |] ], false, two D.add, [ 150233135392228965; 150233135392228965 ]);
    ("add broadcast both", [ [| 3; 1; 4 |]; [| 2; 1 |] ], false, two D.add, [ 3372901250387527362; 1815057663324738855 ]);
    ("add bias", [ [| 2; 3; 4 |]; [| 4 |] ], false, two D.add, [ 3497531260661177359; 4573300219531494390 ]);
    ("sub", [ [| 3; 4 |]; [| 3; 4 |] ], false, two D.sub, [ 4390440253053364660; 2044030225461963188 ]);
    ("sub broadcast both", [ [| 3; 1; 4 |]; [| 2; 1 |] ], false, two D.sub, [ 711165656588143987; 1815057382248183354 ]);
    ("sub bias", [ [| 2; 3; 4 |]; [| 4 |] ], false, two D.sub, [ 3745239263792208639; 848262401815072361 ]);
    ("mul", [ [| 3; 4 |]; [| 3; 4 |] ], false, two D.mul, [ 1269893260509600976; 211989035276698070 ]);
    ("mul broadcast both", [ [| 3; 1; 4 |]; [| 2; 1 |] ], false, two D.mul, [ 3558515330623324879; 1815058664598958644 ]);
    ("mul column", [ [| 3; 4 |]; [| 3; 1 |] ], false, two D.mul, [ 532185890705095972; 988997414542005226 ]);
    ("div", [ [| 3; 4 |]; [| 3; 4 |] ], true, two D.div, [ 3027167573420189151; 1806607912793692856 ]);
    ("div broadcast both", [ [| 3; 1; 4 |]; [| 2; 1 |] ], true, two D.div, [ 3769917787567000708; 1814995313359894658 ]);
    ("div scalar", [ [| 3; 4 |]; [||] ], true, two D.div, [ 4407726162441439517; 100264166824 ]);
    ("neg", [ [| 3; 4 |] ], false, one D.neg, [ 1762449974324182913 ]);
    ("scale", [ [| 3; 4 |] ], false, one (D.scale 0.7), [ 3380473543590783268 ]);
    ("add_scalar", [ [| 3; 4 |] ], false, one (D.add_scalar 1.3), [ 321169445153581706 ]);
    ("relu", [ [| 3; 4 |] ], false, one D.relu, [ 3755200646426451345 ]);
    ("sigmoid", [ [| 3; 4 |] ], false, one D.sigmoid, [ 45331692273918728 ]);
    ("tanh", [ [| 3; 4 |] ], false, one D.tanh, [ 3547578429099034828 ]);
    ("exp", [ [| 3; 4 |] ], false, one D.exp, [ 2802385597360327780 ]);
    ("log", [ [| 3; 4 |] ], true, one D.log, [ 4326386763949927344 ]);
    ("sqrt", [ [| 3; 4 |] ], true, one D.sqrt, [ 388144363834487968 ]);
    ("reshape", [ [| 2; 6 |] ], false, one (fun a -> D.reshape a [| 3; 4 |]), [ 3849509134481268928 ]);
    ("transpose", [ [| 3; 5 |] ], false, one D.transpose, [ 278879816987825072 ]);
    ("broadcast_to row", [ [| 4 |] ], false, one (fun a -> D.broadcast_to a [| 3; 4 |]), [ 368789078834404652 ]);
    ("broadcast_to column", [ [| 3; 1 |] ], false,
     one (fun a -> D.broadcast_to a [| 2; 3; 4 |]), [ 989926502525300562 ]);
    ("sum_all", [ [| 3; 4 |] ], false, one D.sum_all, [ 218156181389677507 ]);
    ("mean_all", [ [| 3; 4 |] ], false, one D.mean_all, [ 140212065541920651 ]);
    ("sum_axes", [ [| 3; 4; 2 |] ], false, one (fun a -> D.sum_axes a [ 1 ]), [ 3457369926930534213 ]);
    ("sum_axes keep_dims", [ [| 3; 4; 2 |] ], false,
     one (fun a -> D.sum_axes ~keep_dims:true a [ 0; 2 ]), [ 876614723937858389 ]);
    ("matmul", [ [| 3; 4 |]; [| 4; 5 |] ], false, two D.matmul, [ 3798253912590779785; 315674959573671535 ]);
    ("batch_matmul", [ [| 2; 3; 4 |]; [| 2; 4; 5 |] ], false, two D.batch_matmul, [ 697116004749757484; 613528063314914340 ]);
    ("batch_transpose", [ [| 2; 3; 4 |] ], false, one D.batch_transpose, [ 3794513654653884665 ]);
    ("conv2d s1 same", [ [| 2; 7; 7; 3 |]; [| 3; 3; 3; 4 |] ], false,
     conv ~stride:(1, 1) ~padding:Convolution.Same, [ 705042785305380816; 2109903989138942183 ]);
    ("conv2d s1 valid", [ [| 2; 7; 7; 3 |]; [| 3; 3; 3; 4 |] ], false,
     conv ~stride:(1, 1) ~padding:Convolution.Valid, [ 889910723872862170; 1403432831077738836 ]);
    ("conv2d s2 same", [ [| 2; 7; 7; 3 |]; [| 3; 3; 3; 4 |] ], false,
     conv ~stride:(2, 2) ~padding:Convolution.Same, [ 170128246209012454; 1139900262755011130 ]);
    ("conv2d s2 valid", [ [| 2; 7; 7; 3 |]; [| 3; 3; 3; 4 |] ], false,
     conv ~stride:(2, 2) ~padding:Convolution.Valid, [ 3190516513658656808; 4264103944576936598 ]);
    ("conv2d default stride", [ [| 2; 6; 6; 2 |]; [| 2; 2; 2; 3 |] ], false,
     two (D.conv2d ~padding:Convolution.Valid), [ 726929262680918098; 696517961587536668 ]);
    ("avg_pool2d 2/2", [ [| 2; 6; 6; 3 |] ], false,
     one (D.avg_pool2d ~size:(2, 2) ~stride:(2, 2)), [ 797375526578283151 ]);
    ("avg_pool2d 3/2", [ [| 2; 7; 7; 3 |] ], false,
     one (D.avg_pool2d ~size:(3, 3) ~stride:(2, 2)), [ 2914445739352908509 ]);
    ("max_pool2d 2/2", [ [| 2; 6; 6; 3 |] ], false,
     one (D.max_pool2d ~size:(2, 2) ~stride:(2, 2)), [ 870228903752850687 ]);
    ("max_pool2d 3/2", [ [| 2; 7; 7; 3 |] ], false,
     one (D.max_pool2d ~size:(3, 3) ~stride:(2, 2)), [ 4175191566131703096 ]);
    ("softmax_cross_entropy", [ [| 4; 5 |] ], false,
     one (D.softmax_cross_entropy ~labels), [ 329017957880328076 ]);
    ("mse", [ [| 3; 4 |] ], false, one (D.mse ~target), [ 2481512257653783241 ]);
  ]

let pullback_digests i (shapes, positive, f) =
  let rng = Prng.create (3000 + i) in
  let inputs =
    List.map
      (fun s ->
        if positive then Dense.rand_uniform rng ~lo:0.5 ~hi:2.0 s
        else Dense.rand_normal rng s)
      shapes
  in
  let ctx = D.new_ctx () in
  let vs = List.map (D.param ctx) inputs in
  let y = f vs in
  let g = Dense.rand_normal rng (D.shape y) in
  D.backward ctx (D.sum_all (D.mul y (D.const g)));
  List.map (fun v -> digest (Option.get (D.adjoint v))) vs

let test_pullback_digests () =
  let wrong =
    List.concat
      (List.mapi
         (fun i (name, shapes, positive, f, expected) ->
           let got = pullback_digests i (shapes, positive, f) in
           if got = expected then []
           else
             [
               Printf.sprintf "%s: [ %s ]" name
                 (String.concat "; " (List.map string_of_int got));
             ])
         pullback_golden)
  in
  if wrong <> [] then Alcotest.failf "pullback digests differ:\n%s" (String.concat "\n" wrong)

(* {1 Every rule against finite differences} *)

module C = S4o_ops.Catalog
module V = C.Vjp (Naive_backend)

(* A differentiable kind with operand shapes it accepts, and whether its
   operands must be positive (log, sqrt, a divisor). *)
let gen_kind_case =
  let open QCheck.Gen in
  let shape r = array_repeat r (int_range 1 4) in
  let any = int_range 0 3 >>= shape in
  (* A shape that broadcasts to [s]: some axes 1, some leading axes gone. *)
  let stretch s =
    let* ones = array_repeat (Array.length s) bool
    and* drop = int_range 0 (Array.length s) in
    let s = Array.mapi (fun i d -> if ones.(i) then 1 else d) s in
    return (Array.sub s drop (Array.length s - drop))
  in
  let case ?(positive = false) kind shapes = (kind, shapes, positive) in
  let unary kind = map (fun s -> case kind [ s ]) any in
  let binary ?positive kind =
    let* s = any in
    let* a = stretch s and* b = stretch s in
    return (case ?positive kind [ a; b ])
  in
  let window =
    let* size = pair (int_range 1 3) (int_range 1 3)
    and* stride = pair (int_range 1 3) (int_range 1 3) in
    let* n = int_range 1 2 and* c = int_range 1 3 in
    let* h = int_range (fst size) 7 and* w = int_range (snd size) 7 in
    return (size, stride, [| n; h; w; c |])
  in
  oneof
    [
      binary C.Add;
      binary C.Sub;
      binary C.Mul;
      binary ~positive:true C.Div;
      unary C.Neg;
      unary C.Relu;
      unary C.Sigmoid;
      unary C.Tanh;
      unary C.Exp;
      map (fun s -> case ~positive:true C.Log [ s ]) any;
      map (fun s -> case ~positive:true C.Sqrt [ s ]) any;
      map2 (fun c s -> case (C.Scale c) [ s ]) (float_range (-2.0) 2.0) any;
      map2 (fun c s -> case (C.Add_scalar c) [ s ]) (float_range (-2.0) 2.0) any;
      map2
        (fun flat s ->
          let target =
            if flat then [| Shape.numel s |] else Array.of_list (List.rev (Array.to_list s))
          in
          case (C.Reshape target) [ s ])
        bool any;
      map (fun s -> case C.Transpose [ s ]) (shape 2);
      (let* s = any in
       map (fun a -> case (C.Broadcast_to s) [ a ]) (stretch s));
      unary C.Sum_all;
      unary C.Mean_all;
      (let* s = int_range 1 3 >>= shape in
       let* axes = shuffle_l (List.init (Array.length s) Fun.id) in
       let* k = int_range 1 (Array.length s) and* keep_dims = bool in
       let axes = List.sort compare (List.filteri (fun i _ -> i < k) axes) in
       return (case (C.Sum_axes { axes; keep_dims }) [ s ]));
      (let* m = int_range 1 4 and* k = int_range 1 4 and* n = int_range 1 4 in
       return (case C.Matmul [ [| m; k |]; [| k; n |] ]));
      (let* b = int_range 1 3 and* m = int_range 1 4 in
       let* k = int_range 1 4 and* n = int_range 1 4 in
       return (case C.Batch_matmul [ [| b; m; k |]; [| b; k; n |] ]));
      map (fun s -> case C.Batch_transpose [ s ]) (shape 3);
      (let* (kh, kw), stride, x = window and* cout = int_range 1 3 and* same = bool in
       let padding = if same then Convolution.Same else Convolution.Valid in
       return (case (C.Conv2d { stride; padding }) [ x; [| kh; kw; x.(3); cout |] ]));
      map (fun (size, stride, x) -> case (C.Avg_pool2d { size; stride }) [ x ]) window;
      map (fun (size, stride, x) -> case (C.Max_pool2d { size; stride }) [ x ]) window;
    ]
  |> fun g -> pair g (int_range 0 1_000_000)

let print_kind_case ((kind, shapes, _), seed) =
  Printf.sprintf "%s[%s] on %s, seed %d" (C.name kind) (C.params_to_string kind)
    (String.concat " " (List.map Shape.to_string shapes))
    seed

(* Distinct magnitudes at least [1/n] apart and [0.1] from zero, so no
   finite difference crosses a relu kink or a pooling window's tie. *)
let spread rng ~positive s =
  let n = Shape.numel s in
  let p = Prng.permutation rng n in
  Dense.init_flat s (fun i ->
      let u = (float_of_int p.(i) +. 0.5) /. float_of_int n in
      if positive then 0.5 +. (1.5 *. u)
      else if Prng.int rng 2 = 0 then 0.1 +. u
      else -0.1 -. u)

(* Each operand's cotangent from the table equals the central finite
   difference of <g, f(x)>, where f is the kind's catalog kernel. *)
let qcheck_every_rule_matches_fd =
  Test_util.qtest ~count:300 "every differentiable kind's pullback matches FD"
    (QCheck.make ~print:print_kind_case gen_kind_case)
    (fun ((kind, shapes, positive), seed) ->
      let rng = Prng.create seed in
      let xs = List.map (spread rng ~positive) shapes in
      let o = C.of_kind kind shapes in
      let y = o.kernel (Array.of_list xs) in
      let g = Dense.rand_normal rng o.out_shape in
      let thunks = V.pullback kind xs y g in
      List.length thunks = List.length xs
      && List.for_all2
           (fun i dx ->
             let dx = dx () in
             let inner xi =
               let args = List.mapi (fun j x -> if j = i then xi else x) xs in
               Dense.sum (Dense.mul g (o.kernel (Array.of_list args)))
             in
             Shape.equal (Dense.shape dx) (List.nth shapes i)
             && Dense.allclose ~rtol:1e-4 ~atol:1e-6 (fd_grad inner (List.nth xs i)) dx)
           (List.init (List.length xs) Fun.id)
           thunks)

let test_no_derivative_raises () =
  let s = [| 1; 4; 4; 2 |] in
  let x = Dense.zeros s in
  List.iter
    (fun kind ->
      match V.pullback kind [ x; x ] x x with
      | _ -> Alcotest.failf "%s has a derivative" (C.name kind)
      | exception Invalid_argument _ -> ())
    [
      C.Relu_grad;
      C.Softmax;
      C.Log_softmax;
      C.Unbroadcast s;
      C.Conv2d_backward_input { stride = (1, 1); padding = Convolution.Same; input_shape = s };
      C.Conv2d_backward_filter { stride = (1, 1); padding = Convolution.Same; filter_shape = s };
      C.Avg_pool2d_backward { size = (2, 2); stride = (2, 2); input_shape = s };
      C.Max_pool2d_backward { size = (2, 2); stride = (2, 2) };
    ]

(* {1 Tape mechanics} *)

let test_params_accumulate_via_fanout () =
  let ctx = D.new_ctx () in
  let x = D.param ctx (Dense.scalar 3.0) in
  let y = D.add (D.mul x x) x in
  D.backward ctx y;
  match D.adjoint x with
  | Some g -> Test_util.check_close "2x + 1" 7.0 (Dense.item g)
  | None -> Alcotest.fail "no adjoint"

let test_constants_get_no_adjoint () =
  let ctx = D.new_ctx () in
  let x = D.param ctx (Dense.scalar 2.0) in
  let c = D.const (Dense.scalar 10.0) in
  let y = D.mul x c in
  D.backward ctx y;
  Test_util.check_true "const has no adjoint" (D.adjoint c = None)

let test_mixed_tapes_rejected () =
  let ctx1 = D.new_ctx () and ctx2 = D.new_ctx () in
  let x = D.param ctx1 (Dense.scalar 1.0) in
  let y = D.param ctx2 (Dense.scalar 2.0) in
  Test_util.check_raises_any "cross-tape rejected" (fun () -> D.add x y)

let test_backward_requires_own_tape () =
  let ctx1 = D.new_ctx () and ctx2 = D.new_ctx () in
  let x = D.param ctx1 (Dense.scalar 1.0) in
  let y = D.relu x in
  ignore ctx2;
  Test_util.check_raises_any "wrong-tape backward" (fun () ->
      D.backward ctx2 y)

let test_tape_length () =
  let ctx = D.new_ctx () in
  let x = D.param ctx (Dense.scalar 1.0) in
  let _ = D.exp (D.relu (D.mul x x)) in
  (* param + 3 ops *)
  Test_util.check_int "tape entries" 4 (D.tape_length ctx)

(* {1 Backend decoupling: identical gradients on all three backends} *)

let lenet_like_loss (type t) (module Bk : Backend_intf.S with type t = t)
    images filter =
  let module Dt = S4o_diff_tensor.Diff_tensor.Make (Bk) in
  let ctx = Dt.new_ctx () in
  let f = Dt.param ctx (Bk.of_dense filter) in
  let x = Dt.const (Bk.of_dense images) in
  let y = Dt.relu (Dt.conv2d ~padding:Convolution.Same x f) in
  let pooled = Dt.avg_pool2d ~size:(2, 2) ~stride:(2, 2) y in
  let loss = Dt.mean_all (Dt.mul pooled pooled) in
  Dt.backward ctx loss;
  ( Bk.to_dense (Dt.value loss),
    match Dt.adjoint f with
    | Some g -> Bk.to_dense g
    | None -> Alcotest.fail "no gradient" )

let test_same_gradients_on_all_backends () =
  let g = rngs 12 in
  let images = Dense.rand_normal g [| 2; 6; 6; 1 |] in
  let filter = Dense.rand_normal g [| 3; 3; 1; 2 |] in
  let loss_n, grad_n = lenet_like_loss (module Naive_backend) images filter in
  let loss_e, grad_e =
    let engine = S4o_device.Engine.create S4o_device.Device_spec.gtx1080 in
    let rt = S4o_eager.Runtime.create engine in
    let module Bk = S4o_eager.Eager_backend.Make (struct
      let rt = rt
    end) in
    lenet_like_loss (module Bk) images filter
  in
  let loss_l, grad_l =
    let engine = S4o_device.Engine.create S4o_device.Device_spec.gtx1080 in
    let rt = S4o_lazy.Lazy_runtime.create engine in
    let module Bk = S4o_lazy.Lazy_backend.Make (struct
      let rt = rt
    end) in
    lenet_like_loss (module Bk) images filter
  in
  Test_util.check_tensor "eager loss" loss_n loss_e;
  Test_util.check_tensor "lazy loss" loss_n loss_l;
  Test_util.check_tensor "eager grad" grad_n grad_e;
  Test_util.check_tensor "lazy grad" grad_n grad_l

let qcheck_grad_of_random_mlp =
  Test_util.qtest ~count:30 "random 2-layer MLP gradient matches FD"
    QCheck.(int_range 0 1_000)
    (fun seed ->
      let g = rngs (1000 + seed) in
      let x = Dense.rand_normal g [| 2; 3 |] in
      let w1 = Dense.rand_normal g [| 3; 4 |] in
      let w2 = Dense.rand_normal g [| 4; 1 |] in
      let plain w1 =
        let h = Dense.tanh (Dense.matmul x w1) in
        Dense.sum (Dense.matmul h w2)
      in
      let ad v =
        let h = D.tanh (D.matmul (D.const x) v) in
        D.sum_all (D.matmul h (D.const w2))
      in
      let fd = fd_grad plain w1 in
      let grad = ad_grad ad w1 in
      Dense.allclose ~rtol:1e-3 ~atol:1e-6 fd grad)

(* Naive, counting its conv backward-input calls. *)
module Counting = struct
  include Naive_backend

  let backward_input_calls = ref 0

  let conv2d_backward_input ?stride ~padding ~input_shape f g =
    incr backward_input_calls;
    Naive_backend.conv2d_backward_input ?stride ~padding ~input_shape f g
end

(* Two convs on a constant image batch: only the second conv's input is
   tracked, so only its pullback computes an input gradient. The filter
   gradients are the kernels' own results, bit for bit. *)
let test_constant_input_pullback_skipped () =
  let module Dc = S4o_diff_tensor.Diff_tensor.Make (Counting) in
  let g = Prng.create 41 in
  let x = Dense.rand_normal g [| 2; 6; 6; 3 |] in
  let f1 = Dense.rand_normal g [| 3; 3; 3; 4 |] and f2 = Dense.rand_normal g [| 3; 3; 4; 2 |] in
  let padding = Convolution.Same in
  let ctx = Dc.new_ctx () in
  let p1 = Dc.param ctx f1 and p2 = Dc.param ctx f2 in
  let y1 = Dc.conv2d ~padding (Dc.const x) p1 in
  let loss = Dc.sum_all (Dc.conv2d ~padding y1 p2) in
  Counting.backward_input_calls := 0;
  Dc.backward ctx loss;
  Test_util.check_int "one backward-input call" 1 !Counting.backward_input_calls;
  let y1v = Convolution.conv2d ~padding x f1 in
  let g2 = Dense.ones [| 2; 6; 6; 2 |] in
  let g1 =
    Convolution.conv2d_backward_input ~padding ~input_shape:[| 2; 6; 6; 4 |] f2 g2
  in
  let grad p = Option.get (Dc.adjoint p) in
  Test_util.check_true "second filter gradient"
    (Dense.bit_equal (grad p2)
       (Convolution.conv2d_backward_filter ~padding ~filter_shape:[| 3; 3; 4; 2 |] y1v g2));
  Test_util.check_true "first filter gradient"
    (Dense.bit_equal (grad p1)
       (Convolution.conv2d_backward_filter ~padding ~filter_shape:[| 3; 3; 3; 4 |] x g1))

let suite =
  let tc = Alcotest.test_case in
  [
    ( "diff_tensor.gradcheck",
      [
        tc "elementwise ops" `Quick test_grad_elementwise;
        tc "sqrt and log" `Quick test_grad_sqrt_log;
        tc "relu" `Quick test_grad_relu;
        tc "matmul both sides" `Quick test_grad_matmul;
        tc "broadcast bias" `Quick test_grad_broadcast_add;
        tc "conv2d both sides" `Quick test_grad_conv2d;
        tc "pooling" `Quick test_grad_pools;
        tc "reshape / transpose" `Quick test_grad_reshape_transpose;
        tc "sum over axes" `Quick test_grad_sum_axes;
        tc "division" `Quick test_grad_div;
        tc "softmax cross-entropy" `Quick test_grad_softmax_cross_entropy;
        tc "mse" `Quick test_grad_mse;
        qcheck_grad_of_random_mlp;
        qcheck_every_rule_matches_fd;
        tc "kinds with no derivative raise" `Quick test_no_derivative_raises;
      ] );
    ("diff_tensor.pullbacks", [ tc "golden digests" `Quick test_pullback_digests ]);
    ( "diff_tensor.tape",
      [
        tc "fan-out accumulates" `Quick test_params_accumulate_via_fanout;
        tc "constants ignored" `Quick test_constants_get_no_adjoint;
        tc "constant input pullback skipped" `Quick test_constant_input_pullback_skipped;
        tc "mixed tapes rejected" `Quick test_mixed_tapes_rejected;
        tc "backward checks tape" `Quick test_backward_requires_own_tape;
        tc "tape length" `Quick test_tape_length;
      ] );
    ( "diff_tensor.decoupling",
      [ tc "identical gradients on naive/eager/lazy" `Quick test_same_gradients_on_all_backends ] );
  ]
