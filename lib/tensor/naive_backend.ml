(** The naive backend of §3.1: {!Dense} tensors executed synchronously on the
    host with zero dispatch machinery. Portable, low-overhead, and ideal for
    small tensors (the mobile spline experiment of §5.1.3 runs on it). *)

type t = Dense.t

let name = "naive"
let of_dense t = t
let to_dense t = t
let shape = Dense.shape
let add = Dense.add
let sub = Dense.sub
let mul = Dense.mul
let div = Dense.div
let neg = Dense.neg
let scale = Dense.scale
let add_scalar = Dense.add_scalar
let exp = Dense.exp
let log = Dense.log
let sqrt = Dense.sqrt
let relu = Dense.relu
let sigmoid = Dense.sigmoid
let tanh = Dense.tanh
let relu_grad = Dense.relu_grad
let reshape = Dense.reshape
let transpose = Dense.transpose
let broadcast_to = Dense.broadcast_to
let unbroadcast = Dense.unbroadcast
let sum_axes = Dense.sum_axes
let sum_all t = Dense.scalar (Dense.sum t)
let mean_all t = Dense.scalar (Dense.mean t)
let matmul a b = Dense.matmul a b
let batch_matmul a b = Dense.batch_matmul a b
let batch_transpose = Dense.batch_transpose
let conv2d ?(stride = Backend_intf.default_conv_stride) ~padding input filter =
  Convolution.conv2d ~stride ~padding input filter

let conv2d_backward_input ?(stride = Backend_intf.default_conv_stride) ~padding
    ~input_shape filter grad =
  Convolution.conv2d_backward_input ~stride ~padding ~input_shape filter grad

let conv2d_backward_filter ?(stride = Backend_intf.default_conv_stride)
    ~padding ~filter_shape input grad =
  Convolution.conv2d_backward_filter ~stride ~padding ~filter_shape input grad

let avg_pool2d ?stride ~size input =
  let stride =
    Option.value stride ~default:(Backend_intf.default_pool_stride ~size)
  in
  Convolution.avg_pool2d ~size ~stride input

let avg_pool2d_backward ?stride ~size ~input_shape grad =
  let stride =
    Option.value stride ~default:(Backend_intf.default_pool_stride ~size)
  in
  Convolution.avg_pool2d_backward ~size ~stride ~input_shape grad

let max_pool2d ?stride ~size input =
  let stride =
    Option.value stride ~default:(Backend_intf.default_pool_stride ~size)
  in
  Convolution.max_pool2d ~size ~stride input

let max_pool2d_backward ?stride ~size input grad =
  let stride =
    Option.value stride ~default:(Backend_intf.default_pool_stride ~size)
  in
  Convolution.max_pool2d_backward ~size ~stride input grad
let softmax = Dense.softmax
let log_softmax = Dense.log_softmax
