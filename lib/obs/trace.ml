open Mediactl_types

type sig_event = {
  chan : string;
  tun : int;
  box : string;
  peer : string;
  initiator : bool;
  signal : Signal.t;
}

type net_decision =
  | Dropped
  | Passed of int
  | Retransmit of int
  | Retry_exhausted
  | Dup_suppressed
  | Reorder_suppressed
  | Ack_sent
  | Ack_dropped

type kind =
  | Sig_send of sig_event
  | Sig_recv of sig_event
  | Meta_send of { chan : string; box : string }
  | Meta_recv of { chan : string; box : string }
  | Slot_transition of { slot : string; from_ : string; to_ : string; cause : string }
  | Goal of { goal : string; slot : string; from_ : string; to_ : string }
  | Net of { chan : string; decision : net_decision }

type event = { seq : int; at : float; kind : kind }

(* ------------------------------------------------------------------ *)
(* The flat ring buffer

   The hot path of a recording session writes fixed-width entries into
   a per-domain flat int array — [stride] words per event: a tag and up
   to six int fields — with timestamps in a parallel float array (so
   they stay unboxed).  Strings are interned into a domain-lifetime
   append-only table and stored as ids; signals are stored as
   {!Mediactl_types.Signal_pack} words.  An emission therefore
   allocates nothing in steady state: every field is an immediate, and
   both arrays and the intern tables persist (and keep their capacity)
   across sessions on the same domain.

   The buffer is drained at session quiesce by {!capture}, which
   snapshots the entries into a self-contained {!Packed.t}: intern ids
   and packed signal words are per-domain artifacts that must never
   cross a domain boundary, so capture — always on the owning domain —
   resolves string ids against a copied table slice and rewrites each
   signal word into an index into a per-capture array of decoded
   (interned) [Signal.t] values.  A packed trace can then be shipped to
   and decoded on any domain. *)

let stride = 7

(* Entry tags (word 0 of each entry). *)
let tag_sig_send = 0
let tag_sig_recv = 1
let tag_meta_send = 2
let tag_meta_recv = 3
let tag_slot = 4
let tag_goal = 5
let tag_net = 6

(* Net-decision codes (field 2 of a [tag_net] entry; field 3 carries
   the copy count or attempt number). *)
let code_of_decision = function
  | Dropped -> 0
  | Passed _ -> 1
  | Retransmit _ -> 2
  | Retry_exhausted -> 3
  | Dup_suppressed -> 4
  | Reorder_suppressed -> 5
  | Ack_sent -> 6
  | Ack_dropped -> 7

let decision_of_code code extra =
  match code with
  | 0 -> Dropped
  | 1 -> Passed extra
  | 2 -> Retransmit extra
  | 3 -> Retry_exhausted
  | 4 -> Dup_suppressed
  | 5 -> Reorder_suppressed
  | 6 -> Ack_sent
  | _ -> Ack_dropped

type ring = {
  mutable ints : int array;  (* [stride] words per event *)
  mutable ats : float array;  (* one unboxed timestamp per event *)
  mutable rlen : int;  (* events recorded so far *)
  str_ids : (string, int) Hashtbl.t;  (* append-only, domain lifetime *)
  mutable strs : string array;  (* id -> string *)
  mutable nstrs : int;
}

let fresh_ring () =
  {
    ints = [||];
    ats = [||];
    rlen = 0;
    str_ids = Hashtbl.create 64;
    strs = [||];
    nstrs = 0;
  }

(* [Hashtbl.find] rather than [find_opt]: the hit path must not
   allocate the option. *)
let str_id r s =
  match Hashtbl.find r.str_ids s with
  | i -> i
  | exception Not_found ->
    let i = r.nstrs in
    Hashtbl.add r.str_ids s i;
    (let cap = Array.length r.strs in
     if i >= cap then begin
       let strs =
         (Array.make (if cap = 0 then 32 else 2 * cap) s
         [@lint.allow
           "alloc: intern-table doubling on a first-seen string; steady state hits the table \
            and E15 charges interning to session setup"])
       in
       Array.blit r.strs 0 strs 0 i;
       r.strs <- strs
     end);
    r.strs.(i) <- s;
    r.nstrs <- i + 1;
    i

(* Reserve the next entry, growing both arrays together; returns the
   base index into [ints]. *)
let ring_slot r =
  let base = r.rlen * stride in
  if base + stride > Array.length r.ints then
    begin
      let cap = Array.length r.ints in
      let cap' = if cap = 0 then 1024 * stride else 2 * cap in
      let ints = Array.make cap' 0 in
      Array.blit r.ints 0 ints 0 (r.rlen * stride);
      r.ints <- ints;
      let ats = Array.make (cap' / stride) 0.0 in
      Array.blit r.ats 0 ats 0 r.rlen;
      r.ats <- ats
    end
    [@lint.allow
      "alloc: ring doubling growth, amortized O(1) words/event and reused across sessions — \
       E15's steady-state 334.5 w/event already includes it"];
  r.rlen <- r.rlen + 1;
  base

(* The recording flag, clock, and ring are domain-local: one mutable
   context per domain, reached through [Domain.DLS].  Instrumentation
   sites all over the stack guard themselves with one [enabled] check —
   a DLS lookup, a load, and a branch, no allocation — so a disabled
   trace still costs almost nothing.  Domain-locality is what lets a
   fleet run many sessions concurrently: each shard records its own
   sessions into its own context, with its own independent numbering,
   and can never observe (or interleave with) another shard's events.
   Within one domain, sessions record one at a time. *)
type ctx = { mutable active : bool; mutable clock : unit -> float; ring : ring }

let ctx_key =
  Domain.DLS.new_key (fun () -> { active = false; clock = (fun () -> 0.0); ring = fresh_ring () })

let ctx () = Domain.DLS.get ctx_key
let enabled () = (ctx ()).active
let set_clock f = (ctx ()).clock <- f
let reset_clock () = (ctx ()).clock <- (fun () -> 0.0)

(* Ring writers, one per entry shape.  Unused fields stay 0. *)

let ring_sig c tag ~chan ~tun ~box ~peer ~initiator signal =
  let r = c.ring in
  let base = ring_slot r in
  r.ats.(r.rlen - 1) <- c.clock ();
  let ints = r.ints in
  ints.(base) <- tag;
  ints.(base + 1) <- str_id r chan;
  ints.(base + 2) <- tun;
  ints.(base + 3) <- str_id r box;
  ints.(base + 4) <- str_id r peer;
  ints.(base + 5) <- (if initiator then 1 else 0);
  ints.(base + 6) <- Signal_pack.pack signal

let ring_meta c tag ~chan ~box =
  let r = c.ring in
  let base = ring_slot r in
  r.ats.(r.rlen - 1) <- c.clock ();
  let ints = r.ints in
  ints.(base) <- tag;
  ints.(base + 1) <- str_id r chan;
  ints.(base + 2) <- str_id r box

let ring_quad c tag a b d e =
  let r = c.ring in
  let base = ring_slot r in
  r.ats.(r.rlen - 1) <- c.clock ();
  let ints = r.ints in
  ints.(base) <- tag;
  ints.(base + 1) <- str_id r a;
  ints.(base + 2) <- str_id r b;
  ints.(base + 3) <- str_id r d;
  ints.(base + 4) <- str_id r e

let ring_net c ~chan decision =
  let r = c.ring in
  let base = ring_slot r in
  r.ats.(r.rlen - 1) <- c.clock ();
  let ints = r.ints in
  ints.(base) <- tag_net;
  ints.(base + 1) <- str_id r chan;
  ints.(base + 2) <- code_of_decision decision;
  ints.(base + 3) <- (match decision with Passed n -> n | Retransmit a -> a | _ -> 0)

let emit kind =
  let c = ctx () in
  if c.active then
    match kind with
    | Sig_send { chan; tun; box; peer; initiator; signal } ->
      ring_sig c tag_sig_send ~chan ~tun ~box ~peer ~initiator signal
    | Sig_recv { chan; tun; box; peer; initiator; signal } ->
      ring_sig c tag_sig_recv ~chan ~tun ~box ~peer ~initiator signal
    | Meta_send { chan; box } -> ring_meta c tag_meta_send ~chan ~box
    | Meta_recv { chan; box } -> ring_meta c tag_meta_recv ~chan ~box
    | Slot_transition { slot; from_; to_; cause } -> ring_quad c tag_slot slot from_ to_ cause
    | Goal { goal; slot; from_; to_ } -> ring_quad c tag_goal goal slot from_ to_
    | Net { chan; decision } -> ring_net c ~chan decision

(* The allocation-free emitters: the arguments go straight into the
   flat buffer without ever building the [kind] value.  These seven are
   the [@@lint.hotpath] roots of ALLOC001 for the tracing layer:
   everything they reach must stay allocation-free (E15). *)

let sig_send ~chan ~tun ~box ~peer ~initiator signal =
  let c = ctx () in
  if c.active then ring_sig c tag_sig_send ~chan ~tun ~box ~peer ~initiator signal
[@@lint.hotpath]

let sig_recv ~chan ~tun ~box ~peer ~initiator signal =
  let c = ctx () in
  if c.active then ring_sig c tag_sig_recv ~chan ~tun ~box ~peer ~initiator signal
[@@lint.hotpath]

let meta_send ~chan ~box =
  let c = ctx () in
  if c.active then ring_meta c tag_meta_send ~chan ~box
[@@lint.hotpath]

let meta_recv ~chan ~box =
  let c = ctx () in
  if c.active then ring_meta c tag_meta_recv ~chan ~box
[@@lint.hotpath]

let slot_transition ~slot ~from_ ~to_ ~cause =
  let c = ctx () in
  if c.active then ring_quad c tag_slot slot from_ to_ cause
[@@lint.hotpath]

let goal ~goal ~slot ~from_ ~to_ =
  let c = ctx () in
  if c.active then ring_quad c tag_goal goal slot from_ to_
[@@lint.hotpath]

let net ~chan decision =
  let c = ctx () in
  if c.active then ring_net c ~chan decision
[@@lint.hotpath]

(* ------------------------------------------------------------------ *)
(* Packed traces                                                       *)

module Packed = struct
  type t = {
    p_len : int;
    p_ints : int array;
        (* [stride] words per event; the signal field of sig entries is
           rewritten by capture to index [p_sigs] *)
    p_ats : float array;
    p_strs : string array;  (* intern-table slice: string id -> string *)
    p_sigs : Signal.t array;  (* per-capture: signal index -> signal *)
  }

  let length t = t.p_len
  let tag t i = t.p_ints.(i * stride)
  let at t i = t.p_ats.(i)

  let field t i k = t.p_ints.((i * stride) + k)
  let str t i k = t.p_strs.(field t i k)

  (* Accessors for the two signal entry shapes (tags 0 and 1) — the
     hot consumers (monitor replay, metrics) read fields directly so
     that scanning a packed trace allocates nothing per event. *)
  let sig_chan t i = str t i 1
  let sig_tun t i = field t i 2
  let sig_box t i = str t i 3
  let sig_peer t i = str t i 4
  let sig_initiator t i = field t i 5 = 1
  let sig_signal t i = t.p_sigs.(field t i 6)

  (* Net entry (tag 6) accessors, for metrics accumulation. *)
  let net_chan t i = str t i 1
  let net_decision t i = decision_of_code (field t i 2) (field t i 3)

  let kind t i =
    let tg = tag t i in
    if tg = tag_sig_send || tg = tag_sig_recv then begin
      let s =
        {
          chan = sig_chan t i;
          tun = sig_tun t i;
          box = sig_box t i;
          peer = sig_peer t i;
          initiator = sig_initiator t i;
          signal = sig_signal t i;
        }
      in
      if tg = tag_sig_send then Sig_send s else Sig_recv s
    end
    else if tg = tag_meta_send then Meta_send { chan = str t i 1; box = str t i 2 }
    else if tg = tag_meta_recv then Meta_recv { chan = str t i 1; box = str t i 2 }
    else if tg = tag_slot then
      Slot_transition { slot = str t i 1; from_ = str t i 2; to_ = str t i 3; cause = str t i 4 }
    else if tg = tag_goal then
      Goal { goal = str t i 1; slot = str t i 2; from_ = str t i 3; to_ = str t i 4 }
    else Net { chan = str t i 1; decision = decision_of_code (field t i 2) (field t i 3) }

  let event t i = { seq = i; at = at t i; kind = kind t i }

  let iter f t =
    for i = 0 to t.p_len - 1 do
      f (event t i)
    done

  let empty = { p_len = 0; p_ints = [||]; p_ats = [||]; p_strs = [||]; p_sigs = [||] }
  [@@lint.allow "race: the arrays are zero-length — nothing to mutate, safe to share"]

  (* Join two captures into one trace.  Both snapshots carry their own
     intern slice, so the second segment's string ids and signal
     indices are rewritten against the merged tables; timestamps are
     kept verbatim (the segments come from consecutive recording
     brackets over one session clock). *)
  let append a b =
    if a.p_len = 0 then b
    else if b.p_len = 0 then a
    else begin
      let ids : (string, int) Hashtbl.t = Hashtbl.create (Array.length a.p_strs) in
      Array.iteri (fun i s -> if not (Hashtbl.mem ids s) then Hashtbl.add ids s i) a.p_strs;
      let extra = ref [] in
      let nextra = ref 0 in
      let remap =
        Array.map
          (fun s ->
            match Hashtbl.find_opt ids s with
            | Some i -> i
            | None ->
              let i = Array.length a.p_strs + !nextra in
              Hashtbl.add ids s i;
              extra := s :: !extra;
              incr nextra;
              i)
          b.p_strs
      in
      let strs = Array.append a.p_strs (Array.of_list (List.rev !extra)) in
      let sigs = Array.append a.p_sigs b.p_sigs in
      let sig_off = Array.length a.p_sigs in
      let len = a.p_len + b.p_len in
      let ints = Array.make (len * stride) 0 in
      Array.blit a.p_ints 0 ints 0 (a.p_len * stride);
      Array.blit b.p_ints 0 ints (a.p_len * stride) (b.p_len * stride);
      let ats = Array.append a.p_ats b.p_ats in
      for i = a.p_len to len - 1 do
        let base = i * stride in
        let tg = ints.(base) in
        let s k = ints.(base + k) <- remap.(ints.(base + k)) in
        if tg = tag_sig_send || tg = tag_sig_recv then begin
          s 1;
          s 3;
          s 4;
          ints.(base + 6) <- ints.(base + 6) + sig_off
        end
        else if tg = tag_meta_send || tg = tag_meta_recv then begin
          s 1;
          s 2
        end
        else if tg = tag_slot || tg = tag_goal then begin
          s 1;
          s 2;
          s 3;
          s 4
        end
        else s 1
      done;
      { p_len = len; p_ints = ints; p_ats = ats; p_strs = strs; p_sigs = sigs }
    end
end

(* Snapshot ring entries [from ..] into a self-contained trace.  Must
   run on the domain that recorded (ids and signal words are
   domain-local). *)
let capture r ~from =
  let len = r.rlen - from in
  let ints = Array.sub r.ints (from * stride) (len * stride) in
  let ats = Array.sub r.ats from len in
  let strs = Array.sub r.strs 0 r.nstrs in
  let sig_idx : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let sigs_rev = ref [] in
  let nsigs = ref 0 in
  for i = 0 to len - 1 do
    let base = i * stride in
    let tg = ints.(base) in
    if tg = tag_sig_send || tg = tag_sig_recv then begin
      let word = ints.(base + 6) in
      let idx =
        match Hashtbl.find_opt sig_idx word with
        | Some idx -> idx
        | None ->
          let idx = !nsigs in
          Hashtbl.add sig_idx word idx;
          sigs_rev := Signal_pack.unpack word :: !sigs_rev;
          incr nsigs;
          idx
      in
      ints.(base + 6) <- idx
    end
  done;
  {
    Packed.p_len = len;
    p_ints = ints;
    p_ats = ats;
    p_strs = strs;
    p_sigs = Array.of_list (List.rev !sigs_rev);
  }

let recording_packed f =
  let c = ctx () in
  if c.active then invalid_arg "Trace.recording_packed: a recording is already active";
  c.ring.rlen <- 0;
  c.active <- true;
  Fun.protect
    ~finally:(fun () ->
      c.active <- false;
      reset_clock ())
    (fun () ->
      let x = f () in
      (x, capture c.ring ~from:0))

let live from =
  let c = ctx () in
  if not c.active then (0, Packed.empty)
  else
    let n = c.ring.rlen in
    (n, if from >= n then Packed.empty else capture c.ring ~from:(Stdlib.max 0 from))

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let decision_name = function
  | Dropped -> "dropped"
  | Passed 1 -> "passed"
  | Passed _ -> "duplicated"
  | Retransmit _ -> "retransmit"
  | Retry_exhausted -> "retry-exhausted"
  | Dup_suppressed -> "dup-suppressed"
  | Reorder_suppressed -> "reorder-suppressed"
  | Ack_sent -> "ack"
  | Ack_dropped -> "ack-dropped"

let pp_kind ppf = function
  | Sig_send { chan; tun; box; peer; signal; _ } ->
    Format.fprintf ppf "send %s.%d %s->%s %a" chan tun box peer Signal.pp signal
  | Sig_recv { chan; tun; box; peer; signal; _ } ->
    Format.fprintf ppf "recv %s.%d %s<-%s %a" chan tun box peer Signal.pp signal
  | Meta_send { chan; box } -> Format.fprintf ppf "meta-send %s from %s" chan box
  | Meta_recv { chan; box } -> Format.fprintf ppf "meta-recv %s at %s" chan box
  | Slot_transition { slot; from_; to_; cause } ->
    Format.fprintf ppf "slot %s %s->%s (%s)" slot from_ to_ cause
  | Goal { goal; slot; from_; to_ } ->
    Format.fprintf ppf "goal %s at %s %s->%s" goal slot from_ to_
  | Net { chan; decision } -> Format.fprintf ppf "net %s %s" chan (decision_name decision)

let pp_event ppf (e : event) = Format.fprintf ppf "#%d %8.1f  %a" e.seq e.at pp_kind e.kind

(* ------------------------------------------------------------------ *)
(* JSONL export                                                        *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let str s = Printf.sprintf "\"%s\"" (json_escape s)

let desc_json d =
  let owner, version = Descriptor.id d in
  Printf.sprintf "{\"owner\":%s,\"version\":%d,\"media\":%b}" (str owner) version
    (Descriptor.offers_media d)

let sel_json (s : Selector.t) =
  let owner, version = s.Selector.responds_to in
  Printf.sprintf "{\"responds_to\":{\"owner\":%s,\"version\":%d},\"codec\":%s}" (str owner)
    version
    (match Selector.codec s with
    | None -> "null"
    | Some c -> str (Format.asprintf "%a" Codec.pp c))

let signal_json signal =
  let base = Printf.sprintf "\"signal\":%s" (str (Signal.name signal)) in
  let payload =
    match Signal.descriptor signal, Signal.selector signal with
    | Some d, _ -> Printf.sprintf ",\"desc\":%s" (desc_json d)
    | None, Some s -> Printf.sprintf ",\"sel\":%s" (sel_json s)
    | None, None -> ""
  in
  base ^ payload

let sig_json tag { chan; tun; box; peer; initiator; signal } =
  Printf.sprintf "\"kind\":%s,\"chan\":%s,\"tun\":%d,\"box\":%s,\"peer\":%s,\"initiator\":%b,%s"
    (str tag) (str chan) tun (str box) (str peer) initiator (signal_json signal)

let kind_json = function
  | Sig_send s -> sig_json "sig_send" s
  | Sig_recv s -> sig_json "sig_recv" s
  | Meta_send { chan; box } ->
    Printf.sprintf "\"kind\":\"meta_send\",\"chan\":%s,\"box\":%s" (str chan) (str box)
  | Meta_recv { chan; box } ->
    Printf.sprintf "\"kind\":\"meta_recv\",\"chan\":%s,\"box\":%s" (str chan) (str box)
  | Slot_transition { slot; from_; to_; cause } ->
    Printf.sprintf "\"kind\":\"slot\",\"slot\":%s,\"from\":%s,\"to\":%s,\"cause\":%s" (str slot)
      (str from_) (str to_) (str cause)
  | Goal { goal; slot; from_; to_ } ->
    Printf.sprintf "\"kind\":\"goal\",\"goal\":%s,\"slot\":%s,\"from\":%s,\"to\":%s" (str goal)
      (str slot) (str from_) (str to_)
  | Net { chan; decision } ->
    let extra =
      match decision with
      | Passed n -> Printf.sprintf ",\"copies\":%d" n
      | Retransmit attempt -> Printf.sprintf ",\"attempt\":%d" attempt
      | Dropped | Retry_exhausted | Dup_suppressed | Reorder_suppressed | Ack_sent
      | Ack_dropped ->
        ""
    in
    Printf.sprintf "\"kind\":\"net\",\"chan\":%s,\"decision\":%s%s" (str chan)
      (str (decision_name decision))
      extra

let event_to_json (e : event) =
  Printf.sprintf "{\"seq\":%d,\"t\":%.3f,%s}" e.seq e.at (kind_json e.kind)

let write_jsonl path p =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Packed.iter
        (fun e ->
          output_string oc (event_to_json e);
          output_char oc '\n')
        p)
