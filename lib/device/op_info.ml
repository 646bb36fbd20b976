(** Cost metadata for a single accelerator operation. Every kernel the
    simulated runtimes dispatch — eagerly (§3.2) or as part of a compiled
    trace (§3.3) — is described by one of these records; the device cost
    model turns it into simulated execution time.

    [kind] matters to the XLA-style compiler: elementwise and data-movement
    ops are fusible into their consumers, contractions (matmul/conv) are
    fusion roots. *)

type kind =
  | Elementwise
  | Reduction
  | Contraction
  | Data_movement
  | Fused of int  (** A fusion cluster of [n] primitive ops. *)

type t = {
  name : string;
  kind : kind;
  flops : int;  (** Floating-point operations performed. *)
  bytes_in : int;  (** Bytes read from device memory. *)
  bytes_out : int;  (** Bytes written to device memory. *)
}

let bytes_of_shape shape = 4 * S4o_tensor.Shape.numel shape

let kind_name = function
  | Elementwise -> "elementwise"
  | Reduction -> "reduction"
  | Contraction -> "contraction"
  | Data_movement -> "data-movement"
  | Fused n -> Format.sprintf "fused(%d)" n

let pp ppf t =
  Format.fprintf ppf "%s[%s: %d flops, %d B in, %d B out]" t.name
    (kind_name t.kind) t.flops t.bytes_in t.bytes_out

(** [elementwise name ~inputs ~output ~flops_per_elem] for maps over
    tensors. *)
let elementwise name ~inputs ~output ?(flops_per_elem = 1) () =
  {
    name;
    kind = Elementwise;
    flops = flops_per_elem * S4o_tensor.Shape.numel output;
    bytes_in = List.fold_left (fun acc s -> acc + bytes_of_shape s) 0 inputs;
    bytes_out = bytes_of_shape output;
  }

let reduction name ~input ~output =
  {
    name;
    kind = Reduction;
    flops = S4o_tensor.Shape.numel input;
    bytes_in = bytes_of_shape input;
    bytes_out = bytes_of_shape output;
  }

let data_movement name ~input ~output =
  {
    name;
    kind = Data_movement;
    flops = 0;
    bytes_in = bytes_of_shape input;
    bytes_out = bytes_of_shape output;
  }

let matmul ~m ~k ~n =
  {
    name = "matmul";
    kind = Contraction;
    flops = 2 * m * k * n;
    bytes_in = 4 * ((m * k) + (k * n));
    bytes_out = 4 * m * n;
  }

let conv2d ~stride ~padding ~input ~filter ~output =
  {
    name = "conv2d";
    kind = Contraction;
    flops = S4o_tensor.Convolution.conv2d_flops ~stride ~padding ~input filter;
    bytes_in = bytes_of_shape input + bytes_of_shape filter;
    bytes_out = bytes_of_shape output;
  }

(** Cost of a fusion cluster: all member flops, but only the cluster's
    external inputs and outputs touch memory — the fusion benefit the paper
    attributes to XLA (§3.3). *)
let fused ~members ~external_in_bytes ~external_out_bytes =
  {
    name = "fusion";
    kind = Fused (List.length members);
    flops = List.fold_left (fun acc (m : t) -> acc + m.flops) 0 members;
    bytes_in = external_in_bytes;
    bytes_out = external_out_bytes;
  }
