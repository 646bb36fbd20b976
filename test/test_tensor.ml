(** Tests for the tensor substrate: shapes, the PRNG, the naive Dense tensor
    (§3.1), and the convolution/pooling kernels with their backward passes. *)

open S4o_tensor
module D = Dense

(* {1 Shape} *)

let test_shape_basics () =
  Test_util.check_int "rank" 3 (Shape.rank [| 2; 3; 4 |]);
  Test_util.check_int "numel" 24 (Shape.numel [| 2; 3; 4 |]);
  Test_util.check_int "scalar numel" 1 (Shape.numel [||]);
  Test_util.check_string "to_string" "[2x3x4]" (Shape.to_string [| 2; 3; 4 |]);
  Test_util.check_string "scalar to_string" "[]" (Shape.to_string [||])

let test_shape_strides () =
  Test_util.check_true "row major strides"
    (Shape.strides [| 2; 3; 4 |] = [| 12; 4; 1 |]);
  Test_util.check_int "offset" (12 + 8 + 3)
    (Shape.offset (Shape.strides [| 2; 3; 4 |]) [| 1; 2; 3 |]);
  Test_util.check_true "unravel inverts offset"
    (Shape.unravel [| 2; 3; 4 |] 23 = [| 1; 2; 3 |])

let test_shape_broadcast () =
  Test_util.check_true "equal shapes" (Shape.broadcast [| 2; 3 |] [| 2; 3 |] = [| 2; 3 |]);
  Test_util.check_true "stretch ones" (Shape.broadcast [| 2; 1 |] [| 1; 3 |] = [| 2; 3 |]);
  Test_util.check_true "rank extension" (Shape.broadcast [| 4; 2; 3 |] [| 3 |] = [| 4; 2; 3 |]);
  Test_util.check_true "scalar broadcasts" (Shape.broadcast [||] [| 5; 5 |] = [| 5; 5 |]);
  Test_util.check_raises_any "incompatible" (fun () -> Shape.broadcast [| 2 |] [| 3 |])

let test_shape_reduce_axes () =
  Test_util.check_true "drop axes" (Shape.reduce_axes [| 2; 3; 4 |] [ 0; 2 ] = [| 3 |]);
  Test_util.check_true "keep dims"
    (Shape.reduce_axes ~keep_dims:true [| 2; 3; 4 |] [ 1 ] = [| 2; 1; 4 |]);
  Test_util.check_raises_any "out of range" (fun () ->
      Shape.reduce_axes [| 2 |] [ 5 ]);
  Test_util.check_raises_any "duplicate" (fun () ->
      Shape.reduce_axes [| 2; 3 |] [ 1; 1 ])

let test_shape_concat_dim () =
  Test_util.check_true "concat axis 0"
    (Shape.concat_dim [| 2; 3 |] [| 4; 3 |] 0 = [| 6; 3 |]);
  Test_util.check_raises_any "mismatched other dim" (fun () ->
      Shape.concat_dim [| 2; 3 |] [| 4; 5 |] 0)

let qcheck_broadcast_commutes =
  Test_util.qtest "broadcast is symmetric"
    QCheck.(pair (list_of_size (Gen.int_range 0 3) (int_range 1 4))
              (list_of_size (Gen.int_range 0 3) (int_range 1 4)))
    (fun (a, b) ->
      let a = Array.of_list a and b = Array.of_list b in
      match (Shape.broadcast a b, Shape.broadcast b a) with
      | x, y -> x = y
      | exception Shape.Shape_error _ -> (
          match Shape.broadcast b a with
          | _ -> false
          | exception Shape.Shape_error _ -> true))

(* {1 Prng} *)

let test_prng_deterministic () =
  let a = Prng.create 99 and b = Prng.create 99 in
  for _ = 1 to 50 do
    Test_util.check_float "same stream" (Prng.float a) (Prng.float b)
  done

let test_prng_int_range () =
  let g = Prng.create 1 in
  for _ = 1 to 1000 do
    let v = Prng.int g 7 in
    Test_util.check_true "in range" (v >= 0 && v < 7)
  done

let test_prng_float_range () =
  let g = Prng.create 2 in
  for _ = 1 to 1000 do
    let v = Prng.float g in
    Test_util.check_true "unit interval" (v >= 0.0 && v < 1.0)
  done

let test_prng_normal_moments () =
  let g = Prng.create 3 in
  let n = 20_000 in
  let samples = Array.init n (fun _ -> Prng.normal g) in
  let mean = Array.fold_left ( +. ) 0.0 samples /. float_of_int n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 samples
    /. float_of_int n
  in
  Test_util.check_close ~eps:0.05 "mean ~ 0" 0.0 mean;
  Test_util.check_close ~eps:0.05 "var ~ 1" 1.0 var

let test_prng_permutation () =
  let g = Prng.create 4 in
  let p = Prng.permutation g 100 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Test_util.check_true "is a permutation" (sorted = Array.init 100 Fun.id)

let test_prng_split_independent () =
  let g = Prng.create 5 in
  let h = Prng.split g in
  Test_util.check_true "split streams differ"
    (Array.init 10 (fun _ -> Prng.float g) <> Array.init 10 (fun _ -> Prng.float h))

(* {1 Dense: construction and value semantics} *)

let test_dense_create () =
  Test_util.check_float "zeros" 0.0 (D.get (D.zeros [| 2; 2 |]) [| 1; 1 |]);
  Test_util.check_float "ones" 1.0 (D.get (D.ones [| 2; 2 |]) [| 0; 1 |]);
  Test_util.check_float "scalar item" 7.5 (D.item (D.scalar 7.5));
  Test_util.check_raises_any "of_array length" (fun () ->
      D.of_array [| 2; 2 |] [| 1.0 |])

let test_dense_value_semantics () =
  let a = D.of_array [| 3 |] [| 1.0; 2.0; 3.0 |] in
  let b = D.set a [| 1 |] 99.0 in
  Test_util.check_float "original untouched" 2.0 (D.get a [| 1 |]);
  Test_util.check_float "copy updated" 99.0 (D.get b [| 1 |]);
  let c = D.copy a in
  D.fill_inplace c 0.0;
  Test_util.check_float "copy is disjoint" 1.0 (D.get a [| 0 |])

let test_dense_of_array_copies () =
  let src = [| 1.0; 2.0 |] in
  let t = D.of_array [| 2 |] src in
  src.(0) <- 50.0;
  Test_util.check_float "input buffer not aliased" 1.0 (D.get t [| 0 |])

let test_dense_init () =
  let t = D.init [| 2; 3 |] (fun idx -> float_of_int ((10 * idx.(0)) + idx.(1))) in
  Test_util.check_float "init by index" 12.0 (D.get t [| 1; 2 |]);
  let u = D.arange 5 in
  Test_util.check_float "arange" 4.0 (D.get u [| 4 |]);
  let l = D.linspace ~lo:0.0 ~hi:1.0 5 in
  Test_util.check_close "linspace" 0.25 (D.get l [| 1 |])

(* {1 Dense: elementwise and broadcasting} *)

let test_dense_elementwise () =
  let a = D.of_array [| 3 |] [| 1.0; -2.0; 3.0 |] in
  let b = D.of_array [| 3 |] [| 4.0; 5.0; -6.0 |] in
  Test_util.check_tensor "add" (D.of_array [| 3 |] [| 5.0; 3.0; -3.0 |]) (D.add a b);
  Test_util.check_tensor "mul" (D.of_array [| 3 |] [| 4.0; -10.0; -18.0 |]) (D.mul a b);
  Test_util.check_tensor "relu" (D.of_array [| 3 |] [| 1.0; 0.0; 3.0 |]) (D.relu a);
  Test_util.check_tensor "neg" (D.of_array [| 3 |] [| -1.0; 2.0; -3.0 |]) (D.neg a);
  Test_util.check_tensor "abs" (D.of_array [| 3 |] [| 1.0; 2.0; 3.0 |]) (D.abs a);
  Test_util.check_tensor "sign" (D.of_array [| 3 |] [| 1.0; -1.0; 1.0 |]) (D.sign a);
  Test_util.check_tensor "clip"
    (D.of_array [| 3 |] [| 1.0; -1.0; 1.0 |])
    (D.clip ~lo:(-1.0) ~hi:1.0 a)

let test_dense_broadcast_binary () =
  let a = D.of_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let row = D.of_array [| 3 |] [| 10.; 20.; 30. |] in
  let col = D.of_array [| 2; 1 |] [| 100.; 200. |] in
  Test_util.check_tensor "matrix + row"
    (D.of_array [| 2; 3 |] [| 11.; 22.; 33.; 14.; 25.; 36. |])
    (D.add a row);
  Test_util.check_tensor "matrix + col"
    (D.of_array [| 2; 3 |] [| 101.; 102.; 103.; 204.; 205.; 206. |])
    (D.add a col);
  Test_util.check_tensor "scalar * matrix"
    (D.scale 2.0 a)
    (D.mul (D.scalar 2.0) a)

let test_dense_broadcast_to_unbroadcast () =
  let row = D.of_array [| 3 |] [| 1.; 2.; 3. |] in
  let big = D.broadcast_to row [| 4; 3 |] in
  Test_util.check_true "broadcast shape" (D.shape big = [| 4; 3 |]);
  Test_util.check_float "broadcast value" 2.0 (D.get big [| 3; 1 |]);
  (* unbroadcast sums the stretched axis: adjoint of broadcasting *)
  Test_util.check_tensor "unbroadcast sums"
    (D.of_array [| 3 |] [| 4.; 8.; 12. |])
    (D.unbroadcast big [| 3 |])

(* The one documented exception to "never aliases the argument": the
   executor's buffer recycling treats this result as an alias. *)
let test_dense_unbroadcast_same_shape_aliases () =
  let t = D.of_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  Test_util.check_true "unbroadcast to own shape is the argument"
    (D.unbroadcast t (D.shape t) == t);
  Test_util.check_true "unbroadcast to a smaller shape is fresh"
    (D.unsafe_data (D.unbroadcast t [| 3 |]) != D.unsafe_data t);
  Test_util.check_true "a target with another element count raises"
    (match D.unbroadcast t [| 1; 4 |] with
    | _ -> false
    | exception Shape.Shape_error _ -> true)

(* [Dense.into] serves the first allocation on its domain from the armed
   view, and only that one: a second allocation, and one on another domain,
   is fresh. *)
let test_dense_into () =
  let slab = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 10 in
  Bigarray.Array1.fill slab 0.0;
  let view = Bigarray.Array1.sub slab 2 4 in
  let fresh0 = D.fresh_allocations () in
  let r =
    D.into view (fun () ->
        let r = D.ones [| 2; 2 |] in
        Domain.join (Domain.spawn (fun () -> ignore (D.zeros [| 4 |])));
        ignore (D.zeros [| 4 |]);
        r)
  in
  Test_util.check_true "the result is the view" (D.unsafe_data r == view);
  Test_util.check_float_array "written in place" [| 0.; 0.; 1.; 1.; 1.; 1.; 0.; 0.; 0.; 0. |]
    (Array.init 10 (Bigarray.Array1.get slab));
  Test_util.check_int "one fresh allocation, on this domain" 1 (D.fresh_allocations () - fresh0);
  Test_util.check_raises_any "a result of another length" (fun () ->
      D.into view (fun () -> D.ones [| 3 |]));
  Test_util.check_raises_any "a result allocated second" (fun () ->
      D.into view (fun () ->
          ignore (D.zeros [| 4 |]);
          D.ones [| 4 |]));
  let x = D.ones [| 4 |] in
  Test_util.check_raises_any "a result that allocates nothing" (fun () -> D.into view (fun () -> x));
  Test_util.check_true "disarmed after a raise" (D.unsafe_data (D.zeros [| 4 |]) != view);
  D.with_slab 3 (fun s ->
      Test_util.check_true "the slab holds what was asked" (Bigarray.Array1.dim s >= 3);
      Test_util.check_raises_any "a slab in use" (fun () -> D.with_slab 0 ignore));
  Test_util.check_raises_any "a raise inside" (fun () -> D.with_slab 0 (fun _ -> failwith "kernel"));
  D.with_slab 0 ignore

(* With the sanitizer armed, [Compiler.run] fills each slab region with NaN
   once its value dies, and a scratch buffer is poisoned as it goes back to
   the cache. *)
let test_dense_poison () =
  let module C = S4o_ops.Catalog in
  let module H = S4o_xla.Hlo in
  let x = H.param ~index:0 ~shape:[| 4 |] in
  let exe =
    S4o_xla.Compiler.compile
      (H.graph_of_outputs [ H.op (C.neg [| 4 |]) [ H.op (C.exp [| 4 |]) [ x ] ] ])
  in
  let engine = S4o_device.Engine.create S4o_device.Device_spec.desktop_cpu in
  let was = Sanitizer.armed () in
  Sanitizer.set_armed true;
  let out, scratch =
    Fun.protect
      ~finally:(fun () -> Sanitizer.set_armed was)
      (fun () ->
        let out = S4o_xla.Compiler.run exe engine [| D.ones [| 4 |] |] in
        ( out.(0),
          D.with_scratch [| 3 |] (fun t ->
              D.fill t 1.0;
              D.unsafe_data t) ))
  in
  Test_util.check_tensor "the output is intact" (D.create [| 4 |] (-.Float.exp 1.0)) out;
  let regions =
    List.filter (fun (st : S4o_xla.Compiler.step) -> st.offset >= 0)
      (Array.to_list (S4o_xla.Compiler.plan exe))
  in
  Test_util.check_int "one region: exp's" 1 (List.length regions);
  D.with_slab 0 (fun slab ->
      List.iter
        (fun (st : S4o_xla.Compiler.step) ->
          Test_util.check_true "a dead region reads NaN"
            (List.for_all
               (fun i -> Float.is_nan (Bigarray.Array1.get slab (st.offset + i)))
               (List.init 4 Fun.id)))
        regions);
  Test_util.check_true "returned scratch reads NaN"
    (Float.is_nan (Bigarray.Array1.get scratch 0))

let qcheck_unbroadcast_adjoint =
  (* <broadcast x, y> = <x, unbroadcast y> : the defining adjoint property *)
  Test_util.qtest ~count:100 "unbroadcast is the adjoint of broadcast_to"
    QCheck.(pair (int_range 1 4) (int_range 1 4))
    (fun (rows, cols) ->
      let g = Prng.create ((rows * 17) + cols) in
      let x = D.rand_normal g [| cols |] in
      let y = D.rand_normal g [| rows; cols |] in
      let lhs = D.sum (D.mul (D.broadcast_to x [| rows; cols |]) y) in
      let rhs = D.sum (D.mul x (D.unbroadcast y [| cols |])) in
      Float.abs (lhs -. rhs) < 1e-9 *. Float.max 1.0 (Float.abs lhs))

(* {1 Dense: reductions} *)

let test_dense_reductions () =
  let a = D.of_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  Test_util.check_float "sum" 21.0 (D.sum a);
  Test_util.check_float "mean" 3.5 (D.mean a);
  Test_util.check_float "max" 6.0 (D.max_value a);
  Test_util.check_float "min" 1.0 (D.min_value a);
  Test_util.check_tensor "sum axis 0"
    (D.of_array [| 3 |] [| 5.; 7.; 9. |])
    (D.sum_axes a [ 0 ]);
  Test_util.check_tensor "sum axis 1"
    (D.of_array [| 2 |] [| 6.; 15. |])
    (D.sum_axes a [ 1 ]);
  Test_util.check_tensor "sum both axes keep"
    (D.of_array [| 1; 1 |] [| 21. |])
    (D.sum_axes ~keep_dims:true a [ 0; 1 ]);
  Test_util.check_tensor "mean axis"
    (D.of_array [| 3 |] [| 2.5; 3.5; 4.5 |])
    (D.mean_axes a [ 0 ])

let test_dense_argmax_rows () =
  let a = D.of_array [| 2; 3 |] [| 1.; 9.; 3.; 7.; 2.; 6. |] in
  Test_util.check_true "argmax per row" (D.argmax_rows a = [| 1; 0 |])

(* {1 Dense: shape ops} *)

let test_dense_reshape_transpose () =
  let a = D.of_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let r = D.reshape a [| 3; 2 |] in
  Test_util.check_float "reshape row-major" 3.0 (D.get r [| 1; 0 |]);
  let t = D.transpose a in
  Test_util.check_true "transpose shape" (D.shape t = [| 3; 2 |]);
  Test_util.check_float "transpose value" 4.0 (D.get t [| 0; 1 |]);
  Test_util.check_tensor "double transpose" a (D.transpose t)

let test_dense_permute () =
  let a = D.init [| 2; 3; 4 |] (fun i -> float_of_int ((100 * i.(0)) + (10 * i.(1)) + i.(2))) in
  let p = D.permute a [| 2; 0; 1 |] in
  Test_util.check_true "permute shape" (D.shape p = [| 4; 2; 3 |]);
  Test_util.check_float "permute value" 123.0 (D.get p [| 3; 1; 2 |])

let test_dense_concat_slice () =
  let a = D.of_array [| 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  let b = D.of_array [| 1; 2 |] [| 5.; 6. |] in
  let c = D.concat a b 0 in
  Test_util.check_true "concat shape" (D.shape c = [| 3; 2 |]);
  Test_util.check_float "concat tail" 6.0 (D.get c [| 2; 1 |]);
  let s = D.slice c ~axis:0 ~start:1 ~len:2 in
  Test_util.check_tensor "slice"
    (D.of_array [| 2; 2 |] [| 3.; 4.; 5.; 6. |])
    s;
  Test_util.check_raises_any "slice bounds" (fun () ->
      D.slice c ~axis:0 ~start:2 ~len:2)

let test_dense_one_hot () =
  let labels = D.of_array [| 3 |] [| 0.; 2.; 1. |] in
  let oh = D.one_hot ~classes:3 labels in
  Test_util.check_tensor "one hot"
    (D.of_array [| 3; 3 |] [| 1.; 0.; 0.; 0.; 0.; 1.; 0.; 1.; 0. |])
    oh;
  Test_util.check_raises_any "label out of range" (fun () ->
      D.one_hot ~classes:2 labels)

(* {1 Dense: linear algebra} *)

let test_dense_matmul () =
  let a = D.of_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let b = D.of_array [| 3; 2 |] [| 7.; 8.; 9.; 10.; 11.; 12. |] in
  Test_util.check_tensor "matmul"
    (D.of_array [| 2; 2 |] [| 58.; 64.; 139.; 154. |])
    (D.matmul a b);
  Test_util.check_raises_any "inner mismatch" (fun () -> D.matmul a a)

let test_dense_dot () =
  let a = D.of_array [| 3 |] [| 1.; 2.; 3. |] in
  let b = D.of_array [| 3 |] [| 4.; 5.; 6. |] in
  Test_util.check_float "dot" 32.0 (D.dot a b)

let qcheck_matmul_associative =
  Test_util.qtest ~count:50 "matmul is associative"
    QCheck.(int_range 1 5)
    (fun n ->
      let g = Prng.create n in
      let a = D.rand_normal g [| n; n |] in
      let b = D.rand_normal g [| n; n |] in
      let c = D.rand_normal g [| n; n |] in
      D.allclose ~rtol:1e-6 ~atol:1e-9
        (D.matmul (D.matmul a b) c)
        (D.matmul a (D.matmul b c)))

let qcheck_matmul_transpose =
  Test_util.qtest ~count:50 "(AB)^T = B^T A^T"
    QCheck.(pair (int_range 1 5) (int_range 1 5))
    (fun (m, n) ->
      let g = Prng.create ((m * 31) + n) in
      let a = D.rand_normal g [| m; n |] in
      let b = D.rand_normal g [| n; m |] in
      D.allclose
        (D.transpose (D.matmul a b))
        (D.matmul (D.transpose b) (D.transpose a)))

(* {1 Dense: NN math} *)

let test_dense_softmax () =
  let a = D.of_array [| 2; 3 |] [| 1.; 2.; 3.; 1000.; 1000.; 1000. |] in
  let s = D.softmax a in
  (* rows sum to one; the huge row checks numerical stability *)
  Test_util.check_close "row 0 sums to 1" 1.0
    (D.get s [| 0; 0 |] +. D.get s [| 0; 1 |] +. D.get s [| 0; 2 |]);
  Test_util.check_close "stable uniform" (1.0 /. 3.0) (D.get s [| 1; 1 |]);
  let ls = D.log_softmax a in
  Test_util.check_close "log_softmax = log softmax" (Float.log (D.get s [| 0; 2 |]))
    (D.get ls [| 0; 2 |])

(* {1 In-place ops} *)

let test_dense_inplace () =
  let a = D.of_array [| 3 |] [| 1.; 2.; 3. |] in
  let b = D.of_array [| 3 |] [| 10.; 10.; 10. |] in
  D.axpy_inplace ~alpha:0.5 a b;
  Test_util.check_tensor "axpy" (D.of_array [| 3 |] [| 6.; 7.; 8. |]) a;
  D.scale_inplace a 2.0;
  Test_util.check_tensor "scale_inplace" (D.of_array [| 3 |] [| 12.; 14.; 16. |]) a;
  D.add_at_inplace a [| 0 |] 1.0;
  Test_util.check_float "add_at" 13.0 (D.get a [| 0 |])

(* {1 Convolution} *)

let test_conv2d_identity_kernel () =
  (* 1x1 identity filter: output = input *)
  let g = Prng.create 10 in
  let x = D.rand_normal g [| 1; 4; 4; 1 |] in
  let f = D.of_array [| 1; 1; 1; 1 |] [| 1.0 |] in
  Test_util.check_tensor "1x1 conv is identity"
    x
    (Convolution.conv2d ~padding:Convolution.Valid x f)

let test_conv2d_known_values () =
  (* 2x2 input, 2x2 all-ones filter, valid: single output = sum *)
  let x = D.of_array [| 1; 2; 2; 1 |] [| 1.; 2.; 3.; 4. |] in
  let f = D.ones [| 2; 2; 1; 1 |] in
  let y = Convolution.conv2d ~padding:Convolution.Valid x f in
  Test_util.check_true "valid output shape" (D.shape y = [| 1; 1; 1; 1 |]);
  Test_util.check_float "sum under window" 10.0 (D.item y)

let test_conv2d_same_padding_shape () =
  let x = D.zeros [| 2; 7; 7; 3 |] in
  let f = D.zeros [| 3; 3; 3; 5 |] in
  let y = Convolution.conv2d ~padding:Convolution.Same x f in
  Test_util.check_true "same keeps spatial" (D.shape y = [| 2; 7; 7; 5 |]);
  let y2 = Convolution.conv2d ~stride:(2, 2) ~padding:Convolution.Same x f in
  Test_util.check_true "same stride 2" (D.shape y2 = [| 2; 4; 4; 5 |])

let test_conv2d_channels () =
  (* input channels summed: filter [1;1;2;1] = [1;10] *)
  let x = D.of_array [| 1; 1; 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  let f = D.of_array [| 1; 1; 2; 1 |] [| 1.; 10. |] in
  let y = Convolution.conv2d ~padding:Convolution.Valid x f in
  Test_util.check_tensor "channel mix"
    (D.of_array [| 1; 1; 2; 1 |] [| 21.; 43. |])
    y

let conv_loss ~stride ~padding x f =
  D.sum (D.mul (Convolution.conv2d ~stride ~padding x f)
           (Convolution.conv2d ~stride ~padding x f))

let test_conv2d_backward_input_finite_diff () =
  let g = Prng.create 20 in
  let x = D.rand_normal g [| 1; 5; 5; 2 |] in
  let f = D.rand_normal g [| 3; 3; 2; 3 |] in
  let stride = (2, 2) and padding = Convolution.Same in
  let y = Convolution.conv2d ~stride ~padding x f in
  (* loss = sum(y^2); dL/dx = conv_backward_input(f, 2y) *)
  let grad = Convolution.conv2d_backward_input ~stride ~padding
      ~input_shape:(D.shape x) f (D.scale 2.0 y) in
  let h = 1e-4 in
  (* check a handful of positions against central differences *)
  List.iter
    (fun idx ->
      let xp = D.set x idx (D.get x idx +. h) in
      let xm = D.set x idx (D.get x idx -. h) in
      let fd = (conv_loss ~stride ~padding xp f -. conv_loss ~stride ~padding xm f) /. (2.0 *. h) in
      Test_util.check_close ~eps:1e-2 "input grad matches fd" fd (D.get grad idx))
    [ [| 0; 0; 0; 0 |]; [| 0; 2; 3; 1 |]; [| 0; 4; 4; 0 |]; [| 0; 1; 2; 1 |] ]

let test_conv2d_backward_filter_finite_diff () =
  let g = Prng.create 21 in
  let x = D.rand_normal g [| 2; 4; 4; 1 |] in
  let f = D.rand_normal g [| 3; 3; 1; 2 |] in
  let stride = (1, 1) and padding = Convolution.Valid in
  let y = Convolution.conv2d ~stride ~padding x f in
  let grad = Convolution.conv2d_backward_filter ~stride ~padding
      ~filter_shape:(D.shape f) x (D.scale 2.0 y) in
  let h = 1e-4 in
  List.iter
    (fun idx ->
      let fp = D.set f idx (D.get f idx +. h) in
      let fm = D.set f idx (D.get f idx -. h) in
      let fd = (conv_loss ~stride ~padding x fp -. conv_loss ~stride ~padding x fm) /. (2.0 *. h) in
      Test_util.check_close ~eps:1e-2 "filter grad matches fd" fd (D.get grad idx))
    [ [| 0; 0; 0; 0 |]; [| 1; 2; 0; 1 |]; [| 2; 1; 0; 0 |] ]

let test_avg_pool () =
  let x = D.of_array [| 1; 2; 2; 1 |] [| 1.; 2.; 3.; 4. |] in
  let y = Convolution.avg_pool2d ~size:(2, 2) ~stride:(2, 2) x in
  Test_util.check_float "avg pool" 2.5 (D.item y);
  let back = Convolution.avg_pool2d_backward ~size:(2, 2) ~stride:(2, 2)
      ~input_shape:[| 1; 2; 2; 1 |] (D.of_array [| 1; 1; 1; 1 |] [| 8.0 |]) in
  Test_util.check_tensor "avg pool backward spreads evenly"
    (D.of_array [| 1; 2; 2; 1 |] [| 2.; 2.; 2.; 2. |])
    back

let test_max_pool () =
  let x = D.of_array [| 1; 2; 2; 1 |] [| 1.; 7.; 3.; 4. |] in
  let y = Convolution.max_pool2d ~size:(2, 2) ~stride:(2, 2) x in
  Test_util.check_float "max pool" 7.0 (D.item y);
  let back = Convolution.max_pool2d_backward ~size:(2, 2) ~stride:(2, 2) x
      (D.of_array [| 1; 1; 1; 1 |] [| 5.0 |]) in
  Test_util.check_tensor "max pool backward routes to argmax"
    (D.of_array [| 1; 2; 2; 1 |] [| 0.; 5.; 0.; 0. |])
    back;
  (* No element beats -inf: the gradient lands on the window's first
     element, inside the window. *)
  let x = D.of_array [| 1; 2; 2; 1 |] [| Float.nan; Float.nan; Float.neg_infinity; Float.nan |] in
  let back = Convolution.max_pool2d_backward ~size:(1, 2) ~stride:(1, 2) x
      (D.of_array [| 1; 2; 1; 1 |] [| 5.0; 6.0 |]) in
  Alcotest.(check (array (float 0.0))) "all-NaN windows stay in bounds"
    [| 5.; 0.; 6.; 0. |] (D.to_array back)

let test_conv2d_flops () =
  (* [1;4;4;1] x [2;2;1;1] valid -> 3x3 output; 2*9*4 = 72 flops *)
  Test_util.check_int "conv flops" 72
    (Convolution.conv2d_flops ~padding:Convolution.Valid
       ~input:[| 1; 4; 4; 1 |] [| 2; 2; 1; 1 |])

let qcheck_conv_linear_in_input =
  Test_util.qtest ~count:40 "conv2d is linear in the input"
    QCheck.(int_range 1 4)
    (fun seed ->
      let g = Prng.create seed in
      let x1 = D.rand_normal g [| 1; 4; 4; 2 |] in
      let x2 = D.rand_normal g [| 1; 4; 4; 2 |] in
      let f = D.rand_normal g [| 3; 3; 2; 2 |] in
      let conv x = Convolution.conv2d ~padding:Convolution.Same x f in
      D.allclose ~rtol:1e-5 ~atol:1e-7
        (conv (D.add x1 x2))
        (D.add (conv x1) (conv x2)))

(* Whole-buffer digests of the three conv kernels, recorded before the
   kernels moved to span loops and the transposed-operand matmul: only the
   data movement changed, so every result must keep its exact bits. Shapes:
   the five resnet-tiny convs (stem, 8->8, 8->16 stride 2, 16->16, the 1x1
   stride-2 shortcut) and both LeNet convs at batch 4, plus a pointwise
   (im2col-free) conv and an odd Valid stride-2 one. *)
let conv_golden =
  [
    ("resnet stem", [| 4; 32; 32; 3 |], [| 3; 3; 3; 8 |], 1, Convolution.Same,
     (905110816085819329, 145142525630883814, 472319994881627880));
    ("resnet 8->8", [| 4; 32; 32; 8 |], [| 3; 3; 8; 8 |], 1, Convolution.Same,
     (4455063237538950000, 1606916987564131332, 3209265648801344818));
    ("resnet 8->16 s2", [| 4; 32; 32; 8 |], [| 3; 3; 8; 16 |], 2, Convolution.Same,
     (2136188091238921924, 996817505563137497, 2350178296991665673));
    ("resnet 16->16", [| 4; 16; 16; 16 |], [| 3; 3; 16; 16 |], 1, Convolution.Same,
     (3071845515764672531, 784026239013929173, 4464533549613820783));
    ("resnet 1x1 s2 shortcut", [| 4; 32; 32; 8 |], [| 1; 1; 8; 16 |], 2,
     Convolution.Same,
     (4218567697699083014, 3045901031818162608, 2080171092021104848));
    ("lenet conv1", [| 4; 28; 28; 1 |], [| 5; 5; 1; 6 |], 1, Convolution.Same,
     (1484391918174680235, 4595095721819083165, 1847249242463105867));
    ("lenet conv2", [| 4; 14; 14; 6 |], [| 5; 5; 6; 16 |], 1, Convolution.Valid,
     (3515332828643676211, 3866585193911127453, 4580224968134730513));
    ("1x1 s1 pointwise", [| 3; 5; 7; 6 |], [| 1; 1; 6; 5 |], 1, Convolution.Valid,
     (2753673602274962732, 3341378043545000609, 208105283063736603));
    ("odd valid s2", [| 3; 9; 11; 5 |], [| 3; 2; 5; 7 |], 2, Convolution.Valid,
     (329579740429637557, 4031395091640394695, 384534526712453576));
  ]

let test_conv_golden_digests () =
  List.iteri
    (fun i (name, ishape, fshape, s, padding, (fwd, bwd_filter, bwd_input)) ->
      let g = Prng.create (1000 + i) in
      let input = D.rand_normal g ishape in
      let filter = D.rand_normal g fshape in
      let stride = (s, s) in
      let out = Convolution.conv2d ~stride ~padding input filter in
      let grad = D.rand_normal g (D.shape out) in
      let digest t = D.hash_contents ~prefix:max_int t in
      Test_util.check_int (name ^ ": conv2d") fwd (digest out);
      Test_util.check_int (name ^ ": backward filter") bwd_filter
        (digest
           (Convolution.conv2d_backward_filter ~stride ~padding
              ~filter_shape:fshape input grad));
      Test_util.check_int (name ^ ": backward input") bwd_input
        (digest
           (Convolution.conv2d_backward_input ~stride ~padding
              ~input_shape:ishape filter grad)))
    conv_golden

(* The patch matrix of a conv, built from its definition: row
   [(b*oh + oy)*ow + ox], column [(ky*kw + kx)*cin + c], zero outside the
   image. *)
let patch_matrix ~stride:(sh, sw) ~padding ~kh ~kw x =
  let s = D.shape x in
  let h = s.(1) and w = s.(2) and cin = s.(3) in
  let oh = Convolution.out_dim padding ~size:h ~kernel:kh ~stride:sh in
  let ow = Convolution.out_dim padding ~size:w ~kernel:kw ~stride:sw in
  let ph, _ = Convolution.pad_amounts padding ~size:h ~kernel:kh ~stride:sh in
  let pw, _ = Convolution.pad_amounts padding ~size:w ~kernel:kw ~stride:sw in
  D.init
    [| s.(0) * oh * ow; kh * kw * cin |]
    (fun idx ->
      let r = idx.(0) and c = idx.(1) in
      let b = r / (oh * ow) and oy = r / ow mod oh and ox = r mod ow in
      let ky = c / (kw * cin) and kx = c / cin mod kw and ch = c mod cin in
      let iy = (oy * sh) + ky - ph and ix = (ox * sw) + kx - pw in
      if iy < 0 || iy >= h || ix < 0 || ix >= w then 0.0 else D.get x [| b; iy; ix; ch |])

(* The streamed backward-filter kernel against [matmul] of the
   materialized patch matrix's transpose, at every golden shape, with batch
   sizes whose patch rows are not a whole number of 128-row blocks. *)
let test_backward_filter_streams_matmul () =
  List.iteri
    (fun i (name, ishape, fshape, s, padding, _) ->
      let g = Prng.create (2000 + i) in
      let ishape = Array.copy ishape in
      ishape.(0) <- 3;
      let input = D.rand_normal g ishape in
      let stride = (s, s) in
      let oshape =
        D.shape (Convolution.conv2d ~stride ~padding input (D.zeros fshape))
      in
      let grad = D.rand_normal g oshape in
      let rows = Shape.numel oshape / fshape.(3) in
      let expected =
        D.reshape
          (D.matmul
             (D.transpose
                (patch_matrix ~stride ~padding ~kh:fshape.(0) ~kw:fshape.(1) input))
             (D.reshape grad [| rows; fshape.(3) |]))
          fshape
      in
      List.iter
        (fun domains ->
          Test_util.check_true
            (Printf.sprintf "%s at %d domains" name domains)
            (D.bit_equal expected
               (Convolution.conv2d_backward_filter ~domains ~stride ~padding
                  ~filter_shape:fshape input grad)))
        [ 1; 2; 4 ])
    conv_golden

(* The patch matrix of a 16->16 resnet conv at batch 4 is 1024 rows by
   144 columns: 7x the padded input image. The kernel holds its result and
   one padded copy of the input, never the matrix. It runs on a fresh
   domain, whose scratch cache starts empty, so the padded copy is
   allocated and counted. *)
let test_backward_filter_padded_bound () =
  let mem = S4o_obs.Memory.global in
  let was = S4o_obs.Memory.enabled mem in
  let g = Prng.create 5 in
  let input = D.rand_normal g [| 4; 16; 16; 16 |] in
  let grad = D.rand_normal g [| 4; 16; 16; 16 |] in
  S4o_obs.Memory.reset mem;
  S4o_obs.Memory.set_enabled mem true;
  Fun.protect
    ~finally:(fun () ->
      S4o_obs.Memory.set_enabled mem was;
      S4o_obs.Memory.reset mem)
    (fun () ->
      Domain.join
        (Domain.spawn (fun () ->
             ignore
               (Convolution.conv2d_backward_filter ~domains:1
                  ~padding:Convolution.Same ~filter_shape:[| 3; 3; 16; 16 |] input grad)));
      let result = 144 * 16 and padded = 4 * 18 * 18 * 16 in
      Test_util.check_true "the padded copy was counted"
        (S4o_obs.Memory.peak_bytes mem >= 8 * padded);
      Test_util.check_true "peak is the result plus one padded image"
        (S4o_obs.Memory.peak_bytes mem <= 8 * (result + padded)))

let suite =
  let tc = Alcotest.test_case in
  [
    ( "tensor.shape",
      [
        tc "basics" `Quick test_shape_basics;
        tc "strides and offsets" `Quick test_shape_strides;
        tc "broadcast" `Quick test_shape_broadcast;
        tc "reduce axes" `Quick test_shape_reduce_axes;
        tc "concat dim" `Quick test_shape_concat_dim;
        qcheck_broadcast_commutes;
      ] );
    ( "tensor.prng",
      [
        tc "deterministic" `Quick test_prng_deterministic;
        tc "int range" `Quick test_prng_int_range;
        tc "float range" `Quick test_prng_float_range;
        tc "normal moments" `Quick test_prng_normal_moments;
        tc "permutation" `Quick test_prng_permutation;
        tc "split independence" `Quick test_prng_split_independent;
      ] );
    ( "tensor.dense",
      [
        tc "creation" `Quick test_dense_create;
        tc "value semantics" `Quick test_dense_value_semantics;
        tc "of_array copies" `Quick test_dense_of_array_copies;
        tc "init / arange / linspace" `Quick test_dense_init;
        tc "elementwise" `Quick test_dense_elementwise;
        tc "broadcasting binary ops" `Quick test_dense_broadcast_binary;
        tc "broadcast_to / unbroadcast" `Quick test_dense_broadcast_to_unbroadcast;
        tc "unbroadcast to own shape aliases" `Quick
          test_dense_unbroadcast_same_shape_aliases;
        tc "into serves one allocation" `Quick test_dense_into;
        tc "slab and scratch poison the dead" `Quick test_dense_poison;
        tc "reductions" `Quick test_dense_reductions;
        tc "argmax rows" `Quick test_dense_argmax_rows;
        tc "reshape / transpose" `Quick test_dense_reshape_transpose;
        tc "permute" `Quick test_dense_permute;
        tc "concat / slice" `Quick test_dense_concat_slice;
        tc "one hot" `Quick test_dense_one_hot;
        tc "matmul" `Quick test_dense_matmul;
        tc "dot" `Quick test_dense_dot;
        tc "softmax stability" `Quick test_dense_softmax;
        tc "in-place ops" `Quick test_dense_inplace;
        qcheck_unbroadcast_adjoint;
        qcheck_matmul_associative;
        qcheck_matmul_transpose;
      ] );
    ( "tensor.convolution",
      [
        tc "1x1 identity" `Quick test_conv2d_identity_kernel;
        tc "known values" `Quick test_conv2d_known_values;
        tc "same padding shapes" `Quick test_conv2d_same_padding_shape;
        tc "channel mixing" `Quick test_conv2d_channels;
        tc "backward input vs finite diff" `Quick test_conv2d_backward_input_finite_diff;
        tc "backward filter vs finite diff" `Quick test_conv2d_backward_filter_finite_diff;
        tc "avg pool fwd/bwd" `Quick test_avg_pool;
        tc "max pool fwd/bwd" `Quick test_max_pool;
        tc "flop counting" `Quick test_conv2d_flops;
        tc "kernels keep their golden digests" `Quick test_conv_golden_digests;
        tc "backward filter streams = im2col + matmul" `Quick
          test_backward_filter_streams_matmul;
        tc "backward filter holds one padded image" `Quick test_backward_filter_padded_bound;
        qcheck_conv_linear_in_input;
      ] );
  ]

(* {1 Batched linear algebra} *)

let test_batch_matmul () =
  let a = D.init [| 2; 2; 3 |] (fun i -> float_of_int ((i.(0) * 100) + (i.(1) * 10) + i.(2))) in
  let b = D.init [| 2; 3; 2 |] (fun i -> float_of_int ((i.(0) * 100) + (i.(1) * 10) + i.(2))) in
  let c = Dense.batch_matmul a b in
  Test_util.check_true "output shape" (D.shape c = [| 2; 2; 2 |]);
  (* each batch slice equals the 2-D matmul of the slices *)
  for batch = 0 to 1 do
    let slice2 t rows cols =
      D.init_flat [| rows; cols |] (fun f -> D.get_flat t ((batch * rows * cols) + f))
    in
    let expected = D.matmul (slice2 a 2 3) (slice2 b 3 2) in
    for i = 0 to 1 do
      for j = 0 to 1 do
        Test_util.check_float "per-batch matmul" (D.get expected [| i; j |])
          (D.get c [| batch; i; j |])
      done
    done
  done;
  Test_util.check_raises_any "inner mismatch" (fun () -> Dense.batch_matmul a a)

let test_batch_transpose () =
  let a = D.init [| 2; 2; 3 |] (fun i -> float_of_int ((i.(0) * 100) + (i.(1) * 10) + i.(2))) in
  let t = Dense.batch_transpose a in
  Test_util.check_true "shape" (D.shape t = [| 2; 3; 2 |]);
  Test_util.check_float "transposed entry" 112.0 (D.get t [| 1; 2; 1 |]);
  Test_util.check_tensor "involution" a (Dense.batch_transpose t)

let qcheck_batch_matmul_matches_loop =
  Test_util.qtest ~count:40 "batch_matmul = per-slice matmul"
    QCheck.(int_range 1 4)
    (fun bs ->
      let g = Prng.create (bs * 97) in
      let a = D.rand_normal g [| bs; 3; 4 |] in
      let b = D.rand_normal g [| bs; 4; 2 |] in
      let c = Dense.batch_matmul a b in
      let ok = ref true in
      for batch = 0 to bs - 1 do
        let sl t rows cols =
          D.init_flat [| rows; cols |] (fun f -> D.get_flat t ((batch * rows * cols) + f))
        in
        let expected = D.matmul (sl a 3 4) (sl b 4 2) in
        for i = 0 to 2 do
          for j = 0 to 1 do
            if Float.abs (D.get expected [| i; j |] -. D.get c [| batch; i; j |]) > 1e-9
            then ok := false
          done
        done
      done;
      !ok)

let batch_suite =
  let tc = Alcotest.test_case in
  [
    ( "tensor.batched",
      [
        tc "batch matmul" `Quick test_batch_matmul;
        tc "batch transpose" `Quick test_batch_transpose;
        qcheck_batch_matmul_matches_loop;
      ] );
  ]

let suite = suite @ batch_suite

(* {1 Optimized kernels vs the retained naive reference}

   The blocked/parallel Bigarray kernels must agree with {!Reference} (the
   pre-optimization float-array kernels, kept verbatim as the oracle), and
   the parallel paths must be bit-identical to the serial ones. *)

let qcheck_matmul_matches_reference =
  Test_util.qtest ~count:60 "blocked matmul matches naive reference"
    QCheck.(triple (int_range 1 13) (int_range 1 13) (int_range 1 13))
    (fun (m, k, n) ->
      let g = Prng.create ((m * 997) + (k * 31) + n) in
      let a = D.rand_normal g [| m; k |] in
      let b = D.rand_normal g [| k; n |] in
      D.allclose ~rtol:1e-9 ~atol:1e-12 (Reference.matmul a b) (D.matmul a b))

(* Big enough to cross the serial cutoff and exercise blocking edges
   (sizes straddle the 128-wide kc/nc blocks). *)
let test_matmul_reference_large () =
  let g = Prng.create 42 in
  List.iter
    (fun (m, k, n) ->
      let a = D.rand_normal g [| m; k |] in
      let b = D.rand_normal g [| k; n |] in
      Test_util.check_true
        (Printf.sprintf "matmul %dx%dx%d matches reference" m k n)
        (D.allclose ~rtol:1e-9 ~atol:1e-12 (Reference.matmul a b)
           (D.matmul a b)))
    [ (47, 130, 129); (64, 64, 64); (130, 47, 4); (3, 200, 131) ]

let qcheck_batch_matmul_matches_reference =
  Test_util.qtest ~count:40 "batch matmul matches naive reference"
    QCheck.(quad (int_range 1 4) (int_range 1 7) (int_range 1 7) (int_range 1 7))
    (fun (bs, m, k, n) ->
      let g = Prng.create ((bs * 7919) + (m * 997) + (k * 31) + n) in
      let a = D.rand_normal g [| bs; m; k |] in
      let b = D.rand_normal g [| bs; k; n |] in
      D.allclose ~rtol:1e-9 ~atol:1e-12 (Reference.batch_matmul a b)
        (D.batch_matmul a b))

let qcheck_sum_axes_matches_reference =
  Test_util.qtest ~count:60 "sum_axes matches naive reference"
    QCheck.(pair (triple (int_range 1 5) (int_range 1 5) (int_range 1 5))
              (pair bool (int_range 0 2)))
    (fun ((d0, d1, d2), (keep_dims, which)) ->
      let g = Prng.create ((d0 * 997) + (d1 * 31) + d2 + Bool.to_int keep_dims) in
      let t = D.rand_normal g [| d0; d1; d2 |] in
      let axes = List.nth [ [ 0 ]; [ 1; 2 ]; [ 0; 2 ] ] which in
      D.allclose ~rtol:1e-9 ~atol:1e-12
        (Reference.sum_axes ~keep_dims t axes)
        (D.sum_axes ~keep_dims t axes))

let conv_case_gen =
  (* n h w cin cout kh kw stride same? — kept small: the reference kernel
     is the slow one. *)
  QCheck.(
    pair
      (quad (int_range 1 2) (int_range 3 8) (int_range 3 8) (int_range 1 3))
      (quad (int_range 1 3) (int_range 1 3) (int_range 1 3)
         (pair (int_range 1 2) bool)))

let conv_inputs (n, h, w, cin) (cout, kh, kw, (s, same)) =
  let g = Prng.create ((n * 7919) + (h * 997) + (w * 31) + cin + (cout * 3) + kh + kw + s) in
  let input = D.rand_normal g [| n; h; w; cin |] in
  let filter = D.rand_normal g [| kh; kw; cin; cout |] in
  let padding = if same then Convolution.Same else Convolution.Valid in
  (input, filter, (s, s), padding)

let qcheck_conv2d_matches_reference =
  Test_util.qtest ~count:50 "im2col conv2d matches naive reference"
    conv_case_gen
    (fun (dims, fdims) ->
      let input, filter, stride, padding = conv_inputs dims fdims in
      let ishape = D.shape input and fshape = D.shape filter in
      let oh =
        Convolution.out_dim padding ~size:ishape.(1) ~kernel:fshape.(0)
          ~stride:(fst stride)
      in
      let ow =
        Convolution.out_dim padding ~size:ishape.(2) ~kernel:fshape.(1)
          ~stride:(snd stride)
      in
      oh = 0 || ow = 0
      || D.allclose ~rtol:1e-9 ~atol:1e-12
           (Reference.conv2d ~stride ~padding input filter)
           (Convolution.conv2d ~stride ~padding input filter))

let qcheck_conv2d_grads_match_reference =
  Test_util.qtest ~count:30 "conv2d backward passes match naive reference"
    conv_case_gen
    (fun (dims, fdims) ->
      let input, filter, stride, padding = conv_inputs dims fdims in
      let out = Convolution.conv2d ~stride ~padding input filter in
      if D.numel out = 0 then true
      else begin
        let g = Prng.create 5 in
        let grad = D.rand_normal g (D.shape out) in
        let input_shape = D.shape input and filter_shape = D.shape filter in
        D.allclose ~rtol:1e-9 ~atol:1e-12
          (Reference.conv2d_backward_input ~stride ~padding ~input_shape
             filter grad)
          (Convolution.conv2d_backward_input ~stride ~padding ~input_shape
             filter grad)
        && D.allclose ~rtol:1e-9 ~atol:1e-12
             (Reference.conv2d_backward_filter ~stride ~padding ~filter_shape
                input grad)
             (Convolution.conv2d_backward_filter ~stride ~padding
                ~filter_shape input grad)
      end)

(* {1 Parallel determinism} *)

let test_parallel_matmul_bit_identical () =
  (* 60*60*60 > the 2^16 serial cutoff, so Pool.run actually partitions. *)
  let g = Prng.create 7 in
  let a = D.rand_normal g [| 60; 60 |] in
  let b = D.rand_normal g [| 60; 60 |] in
  let serial = D.matmul ~domains:1 a b in
  List.iter
    (fun d ->
      Test_util.check_true
        (Printf.sprintf "matmul domains:%d bit-identical to serial" d)
        (D.equal serial (D.matmul ~domains:d a b)))
    [ 2; 3; 4; 8 ]

let test_parallel_batch_matmul_bit_identical () =
  let g = Prng.create 8 in
  let a = D.rand_normal g [| 4; 40; 44 |] in
  let b = D.rand_normal g [| 4; 44; 36 |] in
  let serial = D.batch_matmul ~domains:1 a b in
  List.iter
    (fun d ->
      Test_util.check_true
        (Printf.sprintf "batch_matmul domains:%d bit-identical to serial" d)
        (D.equal serial (D.batch_matmul ~domains:d a b)))
    [ 2; 4 ]

let test_parallel_conv2d_bit_identical () =
  let g = Prng.create 9 in
  let input = D.rand_normal g [| 4; 12; 12; 8 |] in
  let filter = D.rand_normal g [| 3; 3; 8; 8 |] in
  let padding = Convolution.Same in
  let grad = D.rand_normal g [| 4; 12; 12; 8 |] in
  let kernels =
    [
      ("conv2d", fun domains -> Convolution.conv2d ~domains ~padding input filter);
      ( "conv2d_backward_filter",
        fun domains ->
          Convolution.conv2d_backward_filter ~domains ~padding
            ~filter_shape:(D.shape filter) input grad );
      ( "conv2d_backward_input",
        fun domains ->
          Convolution.conv2d_backward_input ~domains ~padding
            ~input_shape:(D.shape input) filter grad );
    ]
  in
  List.iter
    (fun (name, kernel) ->
      let serial = kernel 1 in
      List.iter
        (fun d ->
          Test_util.check_true
            (Printf.sprintf "%s domains:%d bit-identical to serial" name d)
            (D.bit_equal serial (kernel d)))
        [ 2; 4 ])
    kernels

(* {1 Buffer primitives} *)

let test_fill_and_blit () =
  let t = D.zeros [| 2; 3 |] in
  D.fill t 1.5;
  Test_util.check_float "fill all" 9.0 (D.sum t);
  D.fill ~pos:2 ~len:3 t 0.0;
  Test_util.check_float_array "fill range" [| 1.5; 1.5; 0.0; 0.0; 0.0; 1.5 |]
    (D.to_array t);
  Test_util.check_raises_any "fill out of range" (fun () ->
      D.fill ~pos:4 ~len:3 t 0.0);
  let src = D.arange 6 in
  let dst = D.zeros [| 3; 2 |] in
  D.blit src dst;
  Test_util.check_float_array "blit is flat across shapes"
    (D.to_array src) (D.to_array dst);
  Test_util.check_raises_any "blit numel mismatch" (fun () ->
      D.blit src (D.zeros [| 2; 2 |]))

let test_blit_flat () =
  let src = D.arange 5 in
  let dst = D.zeros [| 8 |] in
  D.blit_flat ~src ~src_pos:1 ~dst ~dst_pos:4 ~len:3;
  Test_util.check_float_array "ranged copy"
    [| 0.; 0.; 0.; 0.; 1.; 2.; 3.; 0. |]
    (D.to_array dst);
  Test_util.check_raises_any "src overrun" (fun () ->
      D.blit_flat ~src ~src_pos:3 ~dst ~dst_pos:0 ~len:3);
  Test_util.check_raises_any "dst overrun" (fun () ->
      D.blit_flat ~src ~src_pos:0 ~dst ~dst_pos:6 ~len:3)

let test_hash_contents () =
  let g = Prng.create 11 in
  let a = D.rand_normal g [| 4; 5 |] in
  let b = D.copy a in
  Test_util.check_true "equal tensors hash equal"
    (D.hash_contents a = D.hash_contents b);
  Test_util.check_true "prefix variant is stable"
    (D.hash_contents ~prefix:8 a = D.hash_contents ~prefix:8 b);
  let c = D.set_flat a 0 (D.get_flat a 0 +. 1.0) in
  Test_util.check_true "perturbed tensor hashes differently"
    (D.hash_contents a <> D.hash_contents c);
  Test_util.check_true "shape participates"
    (D.hash_contents (D.zeros [| 4; 5 |]) <> D.hash_contents (D.zeros [| 5; 4 |]))

let test_with_shape_aliases () =
  let t = D.zeros [| 2; 3 |] in
  let v = D.with_shape t [| 6 |] in
  D.fill v 2.0;
  Test_util.check_float "views share the buffer" 12.0 (D.sum t);
  Test_util.check_raises_any "numel mismatch" (fun () -> D.with_shape t [| 5 |])

let qcheck_map2_fast_paths_match_strided =
  Test_util.qtest ~count:60 "map2 fast paths match the strided walker"
    QCheck.(pair (int_range 1 6) (int_range 0 2))
    (fun (n, kind) ->
      let g = Prng.create ((n * 31) + kind) in
      let a = D.rand_normal g [| n; 3 |] in
      let b =
        match kind with
        | 0 -> D.rand_normal g [| n; 3 |] (* same shape: fused loop *)
        | 1 -> D.scalar 2.5 (* scalar broadcast fast path *)
        | _ -> D.rand_normal g [| 1; 3 |] (* generic strided *)
      in
      D.equal (D.map2 ( +. ) a b) (D.map2_strided ( +. ) a b)
      && D.equal (D.add a b) (D.map2_strided ( +. ) a b))

(* {2 Broadcast plans}

   Random broadcast-compatible shape pairs, built to hit every plan: equal
   shapes, scalars (rank 0 and all-ones), trailing-suffix rows with and
   without leading 1s (including a small side with more axes than the big
   one), one contiguous run of stretched axes (a pooled [[N;1;1;C]], a
   [[N;1]] column), and arbitrary stretched axes that only the strided
   walker handles; either operand order. Extents include odd ones (5, 7)
   so loops over rows and blocks do not divide evenly. Values mix signed
   zeros with normals so [div] produces infinities and NaNs, and results
   are compared bit for bit. Reductions cover leading prefixes, random
   subsets and contiguous runs of axes. *)

let broadcast_case_gen =
  let open QCheck.Gen in
  let dim = frequency [ (1, return 0); (12, int_range 1 4); (3, oneofl [ 5; 7 ]) ] in
  let* big = array_size (int_range 0 4) dim in
  let r = Array.length big in
  let suffix k = Array.sub big (r - k) k in
  let* small =
    int_range 0 5 >>= function
    | 0 -> return (Array.copy big)
    | 1 -> map (fun k -> Array.make k 1) (int_range 0 r)
    | 2 -> map suffix (int_range 0 r)
    | 3 ->
        map2
          (fun ones k -> Array.append (Array.make ones 1) (suffix k))
          (int_range 1 3) (int_range 0 r)
    | 4 ->
        map2
          (fun p len -> Array.mapi (fun i d -> if i >= p && i < p + len then 1 else d) big)
          (int_range 0 r) (int_range 1 4)
    | _ ->
        map
          (fun mask ->
            Array.mapi (fun i d -> if mask land (1 lsl i) <> 0 then 1 else d) big)
          (int_range 0 15)
  in
  let* swap = bool in
  let* axes_kind = int_range 0 3 in
  let* axes_pick = int_range 0 15 in
  let* keep_dims = bool in
  let+ seed = int_range 0 100_000 in
  let a, b = if swap then (small, big) else (big, small) in
  (a, b, (axes_kind, axes_pick, keep_dims), seed)

let broadcast_case =
  QCheck.make broadcast_case_gen ~print:(fun (a, b, (kind, pick, keep), seed) ->
      Printf.sprintf "%s op %s, axes (%d, %d, keep=%b), seed %d"
        (Shape.to_string a) (Shape.to_string b) kind pick keep seed)

let special_normal g shape =
  D.init_flat shape (fun _ ->
      match Prng.int g 6 with
      | 0 -> 0.0
      | 1 -> -0.0
      | _ -> Prng.normal g)

let same_bits x y =
  Shape.equal (D.shape x) (D.shape y)
  && Array.for_all2
       (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
       (D.to_array x) (D.to_array y)

(* Non-finite entries against the per-element definition, bit for bit:
   within one 128-wide reduction block every element is +0.0 plus its
   products summed in p order from +0.0. An infinite A entry makes the
   products of the zero columns that pad a partial quad of B NaN, so none
   of those may reach the output. *)
let qcheck_matmul_nonfinite_definition =
  Test_util.qtest ~count:60 "matmul with non-finite entries = its definition"
    QCheck.(triple (int_range 1 13) (int_range 1 128) (int_range 1 13))
    (fun (m, k, n) ->
      let g = Prng.create ((m * 7919) + (k * 31) + n) in
      let a = D.set_flat (special_normal g [| m; k |]) (Prng.int g (m * k)) Float.infinity in
      let b = D.set_flat (special_normal g [| k; n |]) (Prng.int g (k * n)) Float.nan in
      let expected =
        D.init [| m; n |] (fun i ->
            let acc = ref 0.0 in
            for p = 0 to k - 1 do
              acc := !acc +. (D.get a [| i.(0); p |] *. D.get b [| p; i.(1) |])
            done;
            0.0 +. !acc)
      in
      D.bit_equal expected (D.matmul a b))

let qcheck_broadcast_plans_bit_identical =
  Test_util.qtest ~count:600 "broadcast plans are bit-identical to the walkers"
    broadcast_case
    (fun (sa, sb, (axes_kind, axes_pick, keep_dims), seed) ->
      let g = Prng.create seed in
      let a = special_normal g sa and b = special_normal g sb in
      let relu_grad x y = if x > 0.0 then y else 0.0 in
      let mix x y = (x *. 0.5) -. y in
      let binary_ok =
        List.for_all
          (fun (fast, f) -> same_bits (fast a b) (D.map2_strided f a b))
          [
            (D.add, ( +. ));
            (D.sub, ( -. ));
            (D.mul, ( *. ));
            (D.div, ( /. ));
            (D.relu_grad, relu_grad);
            (D.map2 mix, mix);
          ]
      in
      let out = Shape.broadcast sa sb in
      let x = D.add a b in
      let broadcast_ok =
        List.for_all
          (fun t ->
            same_bits (D.broadcast_to t out)
              (D.map2_strided (fun v _ -> v) t (D.zeros out)))
          [ a; b ]
      in
      (* leading prefixes, random subsets, the same subsets listed in
         reverse, as [unbroadcast] builds them, and contiguous runs (the
         blocks path) *)
      let r = Shape.rank out in
      let axes =
        match axes_kind with
        | 0 -> List.init (if r = 0 then 0 else 1 + (axes_pick mod r)) Fun.id
        | 1 -> List.filter (fun i -> axes_pick land (1 lsl i) <> 0) (List.init r Fun.id)
        | 2 ->
            let p = axes_pick mod (r + 1) in
            List.filter (fun i -> i >= p && i <= p + (axes_pick / 4)) (List.init r Fun.id)
        | _ ->
            List.rev
              (List.filter (fun i -> axes_pick land (1 lsl i) <> 0) (List.init r Fun.id))
      in
      let sum_ok =
        same_bits
          (D.sum_axes ~keep_dims x axes)
          (Reference.sum_axes ~keep_dims x axes)
      in
      binary_ok && broadcast_ok && sum_ok)

(* {2 Implicit GEMM, pooling, transposes and ReLU} *)

(* The implicit-GEMM convolutions against their definition: the patch
   matrix built element by element, then [matmul] of it (forward) or of its
   transpose (backward filter), bit for bit, at 1, 2 and 4 domains. Odd
   batches and up to 20x20 images span several 128-row strips and blocks
   and split over the pool. One filter element and one input element are
   sometimes infinite: the zeros of the padding must be multiplied exactly
   as im2col does (0 * inf is NaN), and the zero columns that pad a
   partial quad of B must never reach the output. *)
let qcheck_conv_implicit_gemm_bit_identical =
  let gen =
    QCheck.(
      pair
        (quad (int_range 0 3) (int_range 1 20) (int_range 1 20) (int_range 1 9))
        (quad (int_range 1 13) (pair (int_range 1 5) (int_range 1 5))
           (pair (int_range 1 3) (int_range 1 3))
           (pair bool bool)))
  in
  Test_util.qtest ~count:40 "conv2d and backward filter = patch matrix + matmul"
    gen
    (fun ((b, h, w, cin), (cout, (kh, kw), (sh, sw), (valid, inf))) ->
      let n = (2 * b) + 1 in
      let padding = if valid then Convolution.Valid else Convolution.Same in
      let stride = (sh, sw) in
      let g = Prng.create ((n * 7919) + (h * 31) + (w * 7) + (cin * 5) + cout) in
      let x = special_normal g [| n; h; w; cin |] in
      let f = special_normal g [| kh; kw; cin; cout |] in
      let with_inf t = D.set_flat t (Prng.int g (D.numel t)) Float.infinity in
      let x, f = if inf then (with_inf x, with_inf f) else (x, f) in
      let patches = patch_matrix ~stride ~padding ~kh ~kw x in
      let rows = (D.shape patches).(0) in
      let oh = Convolution.out_dim padding ~size:h ~kernel:kh ~stride:sh in
      let ow = Convolution.out_dim padding ~size:w ~kernel:kw ~stride:sw in
      let fwd =
        D.reshape
          (D.matmul patches (D.reshape f [| kh * kw * cin; cout |]))
          [| n; oh; ow; cout |]
      in
      let grad = special_normal g [| n; oh; ow; cout |] in
      let bwd =
        D.reshape
          (D.matmul (D.transpose patches) (D.reshape grad [| rows; cout |]))
          [| kh; kw; cin; cout |]
      in
      List.for_all
        (fun domains ->
          D.bit_equal fwd (Convolution.conv2d ~domains ~stride ~padding x f)
          && D.bit_equal bwd
               (Convolution.conv2d_backward_filter ~domains ~stride ~padding
                  ~filter_shape:[| kh; kw; cin; cout |] x grad))
        [ 1; 2; 4 ])

(* The average pools against their per-element definition, bit for bit:
   each output sums its window in (ky, kx) order from +0.0 and scales by
   1/(kh*kw); each input element of the backward pass receives its
   addends in (oy, ox) order. *)
let qcheck_avg_pool_bit_identical =
  let gen =
    QCheck.(
      pair
        (quad (int_range 1 3) (int_range 1 12) (int_range 1 12) (int_range 1 9))
        (pair (pair (int_range 1 3) (int_range 1 3)) (pair (int_range 1 3) (int_range 1 3))))
  in
  Test_util.qtest ~count:60 "avg_pool2d and its backward = per-element definition"
    gen
    (fun ((n, h, w, c), ((kh, kw), (sh, sw))) ->
      let g = Prng.create ((n * 7919) + (h * 31) + (w * 7) + c + (kh * 3) + sw) in
      let x = special_normal g [| n; h; w; c |] in
      let oh = Convolution.out_dim Convolution.Valid ~size:h ~kernel:kh ~stride:sh in
      let ow = Convolution.out_dim Convolution.Valid ~size:w ~kernel:kw ~stride:sw in
      let inv = 1.0 /. float_of_int (kh * kw) in
      let fwd =
        D.init [| n; oh; ow; c |] (fun i ->
            let acc = ref 0.0 in
            for ky = 0 to kh - 1 do
              for kx = 0 to kw - 1 do
                acc := !acc +. D.get x [| i.(0); (i.(1) * sh) + ky; (i.(2) * sw) + kx; i.(3) |]
              done
            done;
            !acc *. inv)
      in
      let grad = special_normal g [| n; oh; ow; c |] in
      let dx = Array.make (n * h * w * c) 0.0 in
      for b = 0 to n - 1 do
        for oy = 0 to oh - 1 do
          for ox = 0 to ow - 1 do
            for ch = 0 to c - 1 do
              let gv = D.get grad [| b; oy; ox; ch |] *. inv in
              for ky = 0 to kh - 1 do
                for kx = 0 to kw - 1 do
                  let off = ((((b * h) + (oy * sh) + ky) * w) + (ox * sw) + kx) * c + ch in
                  dx.(off) <- dx.(off) +. gv
                done
              done
            done
          done
        done
      done;
      D.bit_equal fwd (Convolution.avg_pool2d ~size:(kh, kw) ~stride:(sh, sw) x)
      && D.bit_equal (D.of_array [| n; h; w; c |] dx)
           (Convolution.avg_pool2d_backward ~size:(kh, kw) ~stride:(sh, sw)
              ~input_shape:[| n; h; w; c |] grad))

(* The product leaves one panel of rows at a time. Units of [grain] rows
   split over the pool once m is at least two panels (n = 100 makes a
   panel 163 rows); each unit's rows must arrive contiguously, in
   ascending order, and exactly once. *)
let qcheck_matmul_consume_bit_identical =
  Test_util.qtest ~count:40 "matmul_consume hands over matmul's rows"
    QCheck.(quad (int_range 1 60) (int_range 1 20) (int_range 1 60) (int_range 1 100))
    (fun (units, grain, k, n) ->
      let m = units * grain in
      let g = Prng.create ((m * 7919) + (k * 31) + n) in
      let a = special_normal g [| m; k |] in
      let b = special_normal g [| k; n |] in
      let got = D.zeros [| m; n |] in
      (* [upto.(u)]: the first row of unit [u] not handed over yet *)
      let upto = Array.init units (fun u -> u * grain) in
      let ordered = Atomic.make true in
      let consume lo hi panel =
        for u = lo / grain to (hi - 1) / grain do
          if upto.(u) <> max lo (u * grain) then Atomic.set ordered false;
          upto.(u) <- min hi ((u + 1) * grain)
        done;
        Bigarray.Array1.blit
          (Bigarray.Array1.sub panel 0 ((hi - lo) * n))
          (Bigarray.Array1.sub (D.unsafe_data got) (lo * n) ((hi - lo) * n))
      in
      D.matmul_consume ~grain ~consume a b;
      Atomic.get ordered
      && Array.for_all2 (fun r u -> r = (u + 1) * grain) upto (Array.init units Fun.id)
      && D.bit_equal got (D.matmul a b))

let test_transpose_matches_elementwise () =
  (* the definition before tiling: one element per flat output index *)
  let elementwise t =
    let m = (D.shape t).(0) and n = (D.shape t).(1) in
    D.init_flat [| n; m |] (fun flat -> D.get_flat t (((flat mod m) * n) + (flat / m)))
  in
  List.iter
    (fun (m, n) ->
      let t = special_normal (Prng.create ((m * 131) + n)) [| m; n |] in
      Test_util.check_true
        (Printf.sprintf "transpose %dx%d" m n)
        (D.bit_equal (elementwise t) (D.transpose t)))
    [ (1, 1); (1, 70); (70, 1); (3, 5); (31, 33); (33, 65); (64, 32); (100, 7); (0, 4) ]

(* Both ReLU kernels against their branching definitions, on arrays full of
   the values where a branch-free select could differ: signed zeros,
   infinities, NaNs of either sign, subnormals. *)
let relu_specials =
  [| 0.0; -0.0; Float.infinity; Float.neg_infinity; Float.nan; -.Float.nan;
     Int64.float_of_bits 0x7FF0_0000_0000_0001L; 5e-324; -5e-324;
     Float.max_float; -.Float.max_float; 1.0; -1.0 |]

let special_values g shape =
  D.init_flat shape (fun _ ->
      if Prng.int g 2 = 0 then relu_specials.(Prng.int g (Array.length relu_specials))
      else Prng.normal g)

let qcheck_relu_branch_free =
  Test_util.qtest ~count:100 "relu and relu_grad keep the if-form's bits"
    QCheck.(pair (int_range 0 200) (int_range 0 100_000))
    (fun (len, seed) ->
      let g = Prng.create seed in
      let x = special_values g [| len |] and dy = special_values g [| len |] in
      let relu v = if v > 0.0 then v else 0.0 in
      let relu_grad v d = if v > 0.0 then d else 0.0 in
      same_bits (D.relu x) (D.map relu x)
      && same_bits (D.relu_grad x dy) (D.map2_strided relu_grad x dy))

(* {1 Pool} *)

let test_pool_covers_range () =
  let n = 1000 in
  let hits = Array.make n 0 in
  Pool.run ~domains:4 ~n (fun lo hi ->
      for i = lo to hi - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  Test_util.check_true "every index visited exactly once"
    (Array.for_all (fun c -> c = 1) hits)

let test_pool_reraises () =
  Test_util.check_raises_any "worker exception surfaces" (fun () ->
      Pool.run ~domains:4 ~n:100 (fun lo _ ->
          if lo > 0 then failwith "boom"))

let test_pool_nested_serial () =
  (* A nested run must not deadlock; it degrades to the calling domain. *)
  let inner_ran = ref false in
  Pool.run ~domains:2 ~n:2 (fun lo hi ->
      if lo = 0 then
        Pool.run ~domains:2 ~n:(hi - lo) (fun _ _ -> inner_ran := true));
  Test_util.check_true "nested run executed" !inner_ran

let test_pool_width_clamps () =
  let chunks = ref 0 in
  Pool.run ~domains:64 ~n:3 (fun _ _ -> incr chunks);
  Test_util.check_true "domains clamp to n" (!chunks <= 3);
  let ran = ref false in
  Pool.run ~domains:1 ~n:5 (fun lo hi -> ran := lo = 0 && hi = 5);
  Test_util.check_true "width 1 runs serially over the whole range" !ran

let test_pool_shutdown_quiesces () =
  Pool.run ~domains:4 ~n:100 (fun _ _ -> ());
  Test_util.check_true "workers alive after a parallel run"
    (Pool.live_workers () > 0);
  Pool.shutdown ();
  Test_util.check_int "shutdown joins all workers" 0 (Pool.live_workers ());
  (* the pool must come back for later callers *)
  let hits = Atomic.make 0 in
  Pool.run ~domains:4 ~n:100 (fun lo hi -> ignore (Atomic.fetch_and_add hits (hi - lo)));
  Test_util.check_int "pool respawns after shutdown" 100 (Atomic.get hits);
  (* leave no idle domains behind: the rest of the test binary is serial,
     and idle domains tax every stop-the-world minor collection *)
  Pool.shutdown ()

let kernel_suite =
  let tc = Alcotest.test_case in
  [
    ( "tensor.kernels",
      [
        qcheck_matmul_matches_reference;
        qcheck_matmul_nonfinite_definition;
        tc "matmul vs reference, blocked sizes" `Quick test_matmul_reference_large;
        qcheck_batch_matmul_matches_reference;
        qcheck_sum_axes_matches_reference;
        qcheck_conv2d_matches_reference;
        qcheck_conv2d_grads_match_reference;
        tc "parallel matmul bit-identical" `Quick test_parallel_matmul_bit_identical;
        tc "parallel batch matmul bit-identical" `Quick
          test_parallel_batch_matmul_bit_identical;
        tc "parallel conv2d bit-identical" `Quick test_parallel_conv2d_bit_identical;
        qcheck_map2_fast_paths_match_strided;
        qcheck_broadcast_plans_bit_identical;
        qcheck_conv_implicit_gemm_bit_identical;
        qcheck_avg_pool_bit_identical;
        qcheck_matmul_consume_bit_identical;
        tc "tiled transpose = element-wise" `Quick test_transpose_matches_elementwise;
        qcheck_relu_branch_free;
      ] );
    ( "tensor.buffers",
      [
        tc "fill and blit" `Quick test_fill_and_blit;
        tc "blit_flat" `Quick test_blit_flat;
        tc "hash_contents" `Quick test_hash_contents;
        tc "with_shape aliases" `Quick test_with_shape_aliases;
      ] );
    ( "tensor.pool",
      [
        tc "covers range" `Quick test_pool_covers_range;
        tc "re-raises worker exceptions" `Quick test_pool_reraises;
        tc "nested run is serial" `Quick test_pool_nested_serial;
        tc "width clamps" `Quick test_pool_width_clamps;
        tc "shutdown quiesces and respawns" `Quick test_pool_shutdown_quiesces;
      ] );
  ]

let suite = suite @ kernel_suite
