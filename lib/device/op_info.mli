(** Cost metadata for a single accelerator operation. Every kernel the
    simulated runtimes dispatch — eagerly (§3.2) or as part of a compiled
    trace (§3.3) — is described by one record; the device cost model turns
    it into simulated execution time. [kind] matters to the XLA-style
    compiler: elementwise/data-movement/reduction ops are fusible into their
    consumers, contractions (matmul/conv) root fusion clusters. *)

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

(** 4 bytes per element (fp32 on device). *)
val bytes_of_shape : S4o_tensor.Shape.t -> int

val kind_name : kind -> string
val pp : Format.formatter -> t -> unit

(** {1 Constructors} *)

(** [elementwise name ~inputs ~output ~flops_per_elem ()] for maps over
    tensors: flops scale with the output element count; bytes with all
    operand and result sizes. *)
val elementwise :
  string ->
  inputs:S4o_tensor.Shape.t list ->
  output:S4o_tensor.Shape.t ->
  ?flops_per_elem:int ->
  unit ->
  t

val reduction : string -> input:S4o_tensor.Shape.t -> output:S4o_tensor.Shape.t -> t
val data_movement : string -> input:S4o_tensor.Shape.t -> output:S4o_tensor.Shape.t -> t

(** [2mkn] flops. *)
val matmul : m:int -> k:int -> n:int -> t

val conv2d :
  stride:int * int ->
  padding:S4o_tensor.Convolution.padding ->
  input:S4o_tensor.Shape.t ->
  filter:S4o_tensor.Shape.t ->
  output:S4o_tensor.Shape.t ->
  t

(** Cost of a fusion cluster: all member flops, but only the cluster's
    external inputs and outputs touch memory — the fusion benefit the paper
    attributes to XLA (§3.3). *)
val fused : members:t list -> external_in_bytes:int -> external_out_bytes:int -> t
