type track = Host | Device

let track_name = function Host -> "host" | Device -> "device"

type span = {
  name : string;
  cat : string;
  track : track;
  start : float;
  finish : float;
  args : (string * string) list;
}

type event =
  | Span of span
  | Instant of {
      name : string;
      cat : string;
      track : track;
      at : float;
      args : (string * string) list;
    }
  | Counter of { name : string; track : track; at : float; value : float }

type t = {
  mutable events : event list;  (* newest first *)
  mutable n_events : int;
  mutable n_spans : int;
  mutable enabled : bool;
}

let create ?(enabled = true) () =
  { events = []; n_events = 0; n_spans = 0; enabled }

let enabled t = t.enabled
let set_enabled t on = t.enabled <- on

let push t e =
  t.events <- e :: t.events;
  t.n_events <- t.n_events + 1

let span t track ?(cat = "") ?(args = []) name ~start ~finish =
  if t.enabled then begin
    push t (Span { name; cat; track; start; finish; args });
    t.n_spans <- t.n_spans + 1
  end

let instant t track ?(cat = "") ?(args = []) name ~at =
  if t.enabled then push t (Instant { name; cat; track; at; args })

let counter t track name ~at value =
  if t.enabled then push t (Counter { name; track; at; value })

type open_span = {
  o_name : string;
  o_cat : string;
  o_track : track;
  o_start : float;
  o_args : (string * string) list;
}

let begin_span t track ?(cat = "") ?(args = []) name ~at =
  ignore t;
  { o_name = name; o_cat = cat; o_track = track; o_start = at; o_args = args }

let end_span t ?(args = []) o ~at =
  if t.enabled then
    span t o.o_track ~cat:o.o_cat ~args:(o.o_args @ args) o.o_name
      ~start:o.o_start ~finish:at

let events t = List.rev t.events
let spans t = List.filter_map (function Span s -> Some s | _ -> None) (events t)
let span_count t = t.n_spans
let event_count t = t.n_events

let clear t =
  t.events <- [];
  t.n_events <- 0;
  t.n_spans <- 0
