type tag_stats = {
  tag : string;
  live_bytes : int;
  peak_bytes : int;
  allocs : int;
  frees : int;
}

(* Mutable per-tag accumulator behind the immutable snapshot above. *)
type tag_cell = {
  mutable t_live : int;
  mutable t_peak : int;
  mutable t_allocs : int;
  mutable t_frees : int;
}

(* A free reported by a GC finaliser, not yet applied to the totals. *)
type pending_free = { p_gen : int; p_tag : string; p_bytes : int }

type t = {
  mutex : Mutex.t;
  pending : pending_free list Atomic.t;
  mutable enabled : bool;
  mutable gen : int;
  mutable live : int;
  mutable peak : int;
  mutable allocs : int;
  mutable frees : int;
  mutable views : int;
  mutable tag : string;  (* current dynamic attribution tag *)
  by_tag : (string, tag_cell) Hashtbl.t;
}

let default_tag = "tensor"

let create ?(enabled = true) () =
  {
    mutex = Mutex.create ();
    pending = Atomic.make [];
    enabled;
    gen = 0;
    live = 0;
    peak = 0;
    allocs = 0;
    frees = 0;
    views = 0;
    tag = default_tag;
    by_tag = Hashtbl.create 8;
  }

(* Off by default: tracking must be opted into (s4o_cli profile, tests),
   so the un-profiled allocation path pays only the [enabled] branch. *)
let global = create ~enabled:false ()

let enabled t = t.enabled
let set_enabled t on = t.enabled <- on
let generation t = t.gen
let current_tag t = t.tag

let cell t tag =
  match Hashtbl.find_opt t.by_tag tag with
  | Some c -> c
  | None ->
      let c = { t_live = 0; t_peak = 0; t_allocs = 0; t_frees = 0 } in
      Hashtbl.add t.by_tag tag c;
      c

let apply_free t tag bytes =
  t.live <- t.live - bytes;
  t.frees <- t.frees + 1;
  let c = cell t tag in
  c.t_live <- c.t_live - bytes;
  c.t_frees <- c.t_frees + 1

(* Caller holds the mutex. Frees queued under an older generation belong
   to a measurement that [reset] already discarded. *)
let drain t =
  match Atomic.exchange t.pending [] with
  | [] -> ()
  | frees ->
      List.iter
        (fun p -> if p.p_gen = t.gen then apply_free t p.p_tag p.p_bytes)
        (List.rev frees)

(* Every locked section first applies the finaliser frees queued since the
   last one, so readers and the peak computation see them. *)
let locked t f =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      drain t;
      f ())

let alloc t ?tag bytes =
  if t.enabled then
    locked t (fun () ->
        let tag = match tag with Some s -> s | None -> t.tag in
        t.live <- t.live + bytes;
        if t.live > t.peak then t.peak <- t.live;
        t.allocs <- t.allocs + 1;
        let c = cell t tag in
        c.t_live <- c.t_live + bytes;
        if c.t_live > c.t_peak then c.t_peak <- c.t_live;
        c.t_allocs <- c.t_allocs + 1)

let free t ?tag bytes =
  if t.enabled then
    locked t (fun () ->
        apply_free t (match tag with Some s -> s | None -> t.tag) bytes)

(* Runs inside GC finalisers, which can fire at any allocation point —
   including inside [alloc] while this domain holds the mutex. Taking the
   mutex here would deadlock (the error-checking mutex raises instead), so
   the free is pushed onto a lock-free list that the next locked call
   drains. *)
let free_gen t ~gen ?tag bytes =
  if t.enabled && gen = t.gen then begin
    let tag = match tag with Some s -> s | None -> t.tag in
    let p = { p_gen = gen; p_tag = tag; p_bytes = bytes } in
    let rec push () =
      let old = Atomic.get t.pending in
      if not (Atomic.compare_and_set t.pending old (p :: old)) then push ()
    in
    push ()
  end

let note_view t =
  if t.enabled then locked t (fun () -> t.views <- t.views + 1)

(* The tag is dynamic state of the allocating (main) domain; finaliser
   frees never read it (they capture their tag explicitly), so a plain
   mutable field with save/restore is enough. *)
let with_tag t tag f =
  if not t.enabled then f ()
  else begin
    let saved = t.tag in
    t.tag <- tag;
    Fun.protect ~finally:(fun () -> t.tag <- saved) f
  end

(* Readers drain queued finaliser frees first; with none queued they stay
   a plain load, which keeps the engine's per-dispatch sample cheap. *)
let read t f =
  if Atomic.get t.pending = [] then f t else locked t (fun () -> f t)

let live_bytes t = read t (fun t -> t.live)
let peak_bytes t = read t (fun t -> t.peak)
let alloc_count t = read t (fun t -> t.allocs)
let free_count t = read t (fun t -> t.frees)
let view_count t = t.views

let tags t =
  locked t (fun () ->
      Hashtbl.fold
        (fun tag c acc ->
          {
            tag;
            live_bytes = c.t_live;
            peak_bytes = c.t_peak;
            allocs = c.t_allocs;
            frees = c.t_frees;
          }
          :: acc)
        t.by_tag [])
  |> List.sort (fun a b -> compare b.peak_bytes a.peak_bytes)

let reset t =
  locked t (fun () ->
      t.gen <- t.gen + 1;
      t.live <- 0;
      t.peak <- 0;
      t.allocs <- 0;
      t.frees <- 0;
      t.views <- 0;
      t.tag <- default_tag;
      Hashtbl.reset t.by_tag)

let human_bytes b =
  let fb = float_of_int b in
  if abs b >= 1 lsl 30 then Printf.sprintf "%.2f GiB" (fb /. 1073741824.0)
  else if abs b >= 1 lsl 20 then Printf.sprintf "%.2f MiB" (fb /. 1048576.0)
  else if abs b >= 1 lsl 10 then Printf.sprintf "%.1f KiB" (fb /. 1024.0)
  else Printf.sprintf "%d B" b

let rows t =
  let live = live_bytes t and peak = peak_bytes t in
  [
    ("tracking", if t.enabled then "enabled" else "disabled");
    ("live tensor bytes", Printf.sprintf "%d (%s)" live (human_bytes live));
    ("peak tensor bytes", Printf.sprintf "%d (%s)" peak (human_bytes peak));
    ("allocations", string_of_int (alloc_count t));
    ("frees", string_of_int (free_count t));
    ("zero-copy views", string_of_int t.views);
  ]

let pp ppf t =
  List.iter (fun (k, v) -> Format.fprintf ppf "  %-22s %s@." k v) (rows t);
  match tags t with
  | [] -> ()
  | by_tag ->
      Format.fprintf ppf "  by tag:@.";
      List.iter
        (fun (s : tag_stats) ->
          Format.fprintf ppf "    %-14s live %-12s peak %-12s allocs %d frees %d@."
            s.tag (human_bytes s.live_bytes) (human_bytes s.peak_bytes)
            s.allocs s.frees)
        by_tag

let to_json t =
  let open Json in
  Obj
    [
      ("live_bytes", Num (float_of_int (live_bytes t)));
      ("peak_bytes", Num (float_of_int (peak_bytes t)));
      ("alloc_count", Num (float_of_int (alloc_count t)));
      ("free_count", Num (float_of_int (free_count t)));
      ("view_count", Num (float_of_int t.views));
      ( "tags",
        Arr
          (List.map
             (fun (s : tag_stats) ->
               Obj
                 [
                   ("tag", Str s.tag);
                   ("live_bytes", Num (float_of_int s.live_bytes));
                   ("peak_bytes", Num (float_of_int s.peak_bytes));
                   ("allocs", Num (float_of_int s.allocs));
                   ("frees", Num (float_of_int s.frees));
                 ])
             (tags t)) );
    ]
