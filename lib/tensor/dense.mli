(** The Tensor compute substrate of §3.1: a multi-dimensional array backed by
    a flat C-layout float64 {!Bigarray.Array1}, with cache-blocked,
    optionally {!Domain}-parallel dense kernels (see {!Pool}).

    The API has {e value semantics}: every operation returns a fresh tensor
    and never aliases the argument buffers, so distinct values access
    logically disjoint data (§4). The one exception is {!unbroadcast} to
    the argument's own shape, which returns the argument itself. That is
    harmless while neither value is mutated, but an executor that plans
    buffers must treat the result as an alias of the argument (their
    {!unsafe_data} are physically equal). A small set of explicitly named
    [*_inplace] operations (plus {!blit}/{!fill}) mutate their first
    argument; they model Swift's [inout] unique borrow and must only be
    applied to values the caller uniquely owns (this is what the optimizer's
    in-place update path uses).

    Elementwise binary operations classify their operands once into a
    broadcast plan — same shape, scalar on either side, or {e blocks}: the
    smaller operand stretches one contiguous run of the output's axes, as
    in a [[N;H;W;C] op [C]] channel broadcast, a [[N;1;1;C]] pooled
    operand or a [[N;1]] column — and run one flat loop per plan; any other
    shape pair (two separate stretched runs, or both operands stretched)
    falls back to the generic strided walker ({!map2_strided}). [sum_axes]
    over one run of axes and [broadcast_to] onto a blocks target have flat
    paths too. Every fast path performs the same float operations in the
    same order as the generic walker, so results are bit-identical to it.
    The matmul family ([matmul], [matmul_gather], [matmul_consume],
    [batch_matmul]) shares one cache-blocked kernel with a 2x4 register
    micro-kernel and partitions output rows across the domain pool above a
    fixed work cutoff; the partition is contiguous, so results are
    bit-identical for every domain count. *)

type t

(** The flat row-major storage of every tensor. *)
type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

exception Shape_error of string
(** Re-raised from {!Shape}[.Shape_error] for shape mismatches. *)

(** {1 Creation} *)

val create : Shape.t -> float -> t
val zeros : Shape.t -> t
val ones : Shape.t -> t

(** Uninitialized storage. Kernels only: the caller must write every
    element before the tensor escapes (used by the average pool, which
    starts each output span from an explicit +0.0 instead of paying a full
    pre-fill pass). *)
val uninit : Shape.t -> t

val scalar : float -> t

(** [of_array shape data] copies [data]; its length must equal
    [Shape.numel shape]. *)
val of_array : Shape.t -> float array -> t

(** [init shape f] fills element at multi-index [idx] with [f idx]. *)
val init : Shape.t -> (int array -> float) -> t

(** [init_flat shape f] fills flat position [i] with [f i], in increasing
    flat order (PRNG-fed initializers rely on the order). *)
val init_flat : Shape.t -> (int -> float) -> t

val arange : int -> t
val linspace : lo:float -> hi:float -> int -> t
val rand_uniform : Prng.t -> ?lo:float -> ?hi:float -> Shape.t -> t
val rand_normal : Prng.t -> ?mean:float -> ?stddev:float -> Shape.t -> t

(** {1 Access} *)

val shape : t -> Shape.t
val rank : t -> int
val numel : t -> int
val get : t -> int array -> float
val get_flat : t -> int -> float

(** Extracts the value of a rank-0 or single-element tensor. *)
val item : t -> float

(** Copy of the underlying buffer in row-major order, as a plain OCaml
    array (checkpointing, tests, interop). *)
val to_array : t -> float array

(** The underlying buffer itself, not a copy. Mutating it breaks value
    semantics; reserved for kernels and backends. *)
val unsafe_data : t -> buffer

val copy : t -> t

(** [with_shape t shape] reinterprets [t]'s buffer under a new shape of the
    same [numel] {e without copying} — the two values alias. Reserved for
    kernels that immediately drop one of the views (e.g. conv matmul
    results); anything else breaks value semantics. *)
val with_shape : t -> Shape.t -> t

(** {1 Functional update} *)

(** [set t idx v] is a copy of [t] with element [idx] replaced. *)
val set : t -> int array -> float -> t

val set_flat : t -> int -> float -> t

(** {1 In-place (unique-borrow) operations} *)

(** [fill ?pos ?len t v] sets the flat range [\[pos, pos+len)] (default: the
    whole tensor) to [v]. *)
val fill : ?pos:int -> ?len:int -> t -> float -> unit

val fill_inplace : t -> float -> unit
(** [fill_inplace t v] = [fill t v]; the historical name. *)

(** [blit src dst] copies [src]'s contents into [dst]; both must have the
    same number of elements (shapes may differ — the copy is flat). *)
val blit : t -> t -> unit

(** [blit_flat ~src ~src_pos ~dst ~dst_pos ~len] copies the flat range
    [\[src_pos, src_pos+len)] of [src] onto [\[dst_pos, ...)] of [dst] —
    the primitive under batch padding and row stacking. *)
val blit_flat : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit

(** [axpy_inplace ~alpha dst x]: [dst <- dst + alpha * x]. *)
val axpy_inplace : alpha:float -> t -> t -> unit

(** [scale_inplace t alpha]: [t <- alpha * t]. *)
val scale_inplace : t -> float -> unit

(** [add_at_inplace t idx v]: [t.(idx) <- t.(idx) + v] — the O(1) inout
    pullback primitive of Appendix B. *)
val add_at_inplace : t -> int array -> float -> unit

(** {1 Elementwise} *)

val map : (float -> float) -> t -> t

(** Broadcasting binary map (NumPy rules): same-shape, scalar and rows
    fast paths, {!map2_strided} otherwise. *)
val map2 : (float -> float -> float) -> t -> t -> t

(** The generic strided broadcast walker, with no fast paths. Semantically
    identical to {!map2}; retained separately so benchmarks and tests can
    measure/check the specialized loops against it. *)
val map2_strided : (float -> float -> float) -> t -> t -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val scale : float -> t -> t
val add_scalar : float -> t -> t
val exp : t -> t
val log : t -> t
val sqrt : t -> t
val abs : t -> t
val sign : t -> t
val relu : t -> t

(** [relu_grad x g] is [g] where [x > 0], else [0] (broadcasting like
    {!map2}) — the ReLU pullback. *)
val relu_grad : t -> t -> t
val sigmoid : t -> t
val tanh : t -> t
val maximum : t -> t -> t
val minimum : t -> t -> t
val clip : lo:float -> hi:float -> t -> t

(** {1 Comparison} *)

val equal : t -> t -> bool

(** Same shape and the same bits in every element: [0.0] and [-0.0] differ,
    and a NaN equals a NaN with the same payload. *)
val bit_equal : t -> t -> bool

val allclose : ?rtol:float -> ?atol:float -> t -> t -> bool

(** [hash_contents ?prefix t] hashes shape plus (at most) the first [prefix]
    elements (default 64) of the buffer directly — no intermediate array
    copy, unlike [Hashtbl.hash (to_array t)]. Every bit of each element
    counts, the sign included. Bit-equal tensors hash equal; collisions are
    possible (confirm with {!bit_equal}). *)
val hash_contents : ?prefix:int -> t -> int

(** {1 Reductions} *)

val sum : t -> float
val mean : t -> float
val max_value : t -> float
val min_value : t -> float

(** [sum_axes ?keep_dims t axes] sums over the given axes. *)
val sum_axes : ?keep_dims:bool -> t -> int list -> t

val mean_axes : ?keep_dims:bool -> t -> int list -> t

(** Row-wise argmax of a [\[n; c\]] tensor. *)
val argmax_rows : t -> int array

(** {1 Shape manipulation} *)

val reshape : t -> Shape.t -> t

(** [broadcast_to t shape] materializes [t] broadcast to [shape]. *)
val broadcast_to : t -> Shape.t -> t

(** [unbroadcast t shape] sums [t] back down to [shape] — the adjoint of
    [broadcast_to], used by reverse-mode AD. When [shape] equals [t]'s
    shape there is nothing to sum and the result is [t] itself, not a
    copy: [unbroadcast t (shape t) == t]. *)
val unbroadcast : t -> Shape.t -> t

(** 2-D transpose, cache-tiled. *)
val transpose : t -> t

(** [transpose_into t dst] writes [transpose t] into [dst], whose shape
    must be [t]'s reversed. *)
val transpose_into : t -> t -> unit

(** General axis permutation. *)
val permute : t -> int array -> t

val concat : t -> t -> int -> t

(** [slice t ~axis ~start ~len]. *)
val slice : t -> axis:int -> start:int -> len:int -> t

(** [one_hot ~classes labels] maps [\[n\]] integer-valued entries to
    [\[n; classes\]]. *)
val one_hot : classes:int -> t -> t

(** {1 Linear algebra} *)

(** 2-D matrix product [\[m;k\] x \[k;n\] -> \[m;n\]]: cache-blocked with a
    2x4 register micro-kernel; rows are partitioned over the domain pool
    when [m*n*k] exceeds the serial cutoff. [?domains] overrides the pool's
    default width for this call (benchmarks use it to sweep scaling);
    results are bit-identical for every width. *)
val matmul : ?domains:int -> t -> t -> t

(** [matmul_gather ~m ~k ~rows ~cols a b] is [matmul a' b] for the
    [a' : \[m;k\]] whose element [(i, p)] is [a.{r_i + c_p}], never
    materialized: the kernel reads each element straight from [a] (an
    implicit-GEMM convolution reads its patch matrix out of the padded
    image this way). [rows lo hi tbl] writes [r_i] for [i] in [\[lo, hi)]
    to [tbl.(i - lo)], and [cols lo hi tbl] writes [c_p] the same way; each
    call covers at most 128 indices. Bit-identical to {!matmul} of the
    materialized [a'] for every domain count; the pool splits the rows only
    when each job gets at least 16384 elements of [a']. [rows] and [cols]
    may run on any pool domain. *)
val matmul_gather :
  ?domains:int ->
  m:int ->
  k:int ->
  rows:(int -> int -> int array -> unit) ->
  cols:(int -> int -> int array -> unit) ->
  buffer ->
  t ->
  t

(** [matmul_consume ~grain ~consume a b] computes [matmul a b] without
    materializing it: each small panel of product rows goes to
    [consume lo hi panel] (rows [\[lo, hi)], row-major from the start of
    [panel]) while it is still in cache. Pool jobs (at least one whole
    panel each) own whole units of [grain] rows
    ([grain] must divide [a]'s row count) and hand their panels over in
    ascending row order, so a [consume] that scatters the rows of one unit
    into shared state needs no locking. The rows are bit-identical to
    [matmul]'s. *)
val matmul_consume :
  ?domains:int ->
  grain:int ->
  consume:(int -> int -> buffer -> unit) ->
  t ->
  t ->
  unit

(** 1-D dot product. *)
val dot : t -> t -> float

(** {1 NN math} *)

(** Numerically-stable softmax over the last axis of a 2-D tensor. *)
val softmax : t -> t

val log_softmax : t -> t

(** {1 Planned buffers}

    An executor that plans every buffer ahead of time
    ({!S4o_xla.Compiler.run}) keeps a program's intermediates in one buffer
    per domain, the {e slab}, and hands each kernel the region of it where
    its result goes. Results are unchanged because every kernel writes each
    element of its output (or starts from {!zeros}). *)

(** [with_slab n f] runs [f] on the calling domain's slab. A slab shorter
    than [n] elements is first replaced by a fresh one a quarter longer
    than [n], so that a slightly larger program does not replace it again;
    it never shrinks. Raises [Invalid_argument] if the slab is already in
    use on this domain. *)
val with_slab : int -> (buffer -> 'a) -> 'a

(** Bytes of the calling domain's slab. *)
val slab_bytes : unit -> int

(** [into dest f] runs [f] with [dest] armed as the buffer of the first
    tensor allocated on the calling domain: that allocation must be exactly
    [dest]'s length, and takes [dest] itself. Later allocations, and those
    on other domains, are fresh. Raises [Invalid_argument] if [f]'s result
    is not over [dest]: a kernel must allocate its result first (and, to
    stay within its plan, nothing else). *)
val into : buffer -> (unit -> t) -> t

(** Tensor buffers allocated fresh on the calling domain so far: every
    allocation {!into} did not serve, and each slab growth. Kernel scratch
    is not counted. *)
val fresh_allocations : unit -> int

(** {1 Kernel scratch} *)

(** [with_scratch shape f] runs [f] on an uninitialised tensor of [shape]
    whose buffer comes from the calling domain's scratch cache and goes
    back to it when [f] returns, on every domain.
    Neither the tensor nor a view of it may outlive [f]. With the sanitizer
    armed the buffer is filled with NaN as it goes back. *)
val with_scratch : Shape.t -> (t -> 'a) -> 'a

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Batched linear algebra} *)

(** Batched matrix product [\[b;m;k\] x \[b;k;n\] -> \[b;m;n\]]; same
    blocking, partitioning and determinism as {!matmul}. *)
val batch_matmul : ?domains:int -> t -> t -> t

(** Transpose of the trailing two axes of a rank-3 tensor. *)
val batch_transpose : t -> t
