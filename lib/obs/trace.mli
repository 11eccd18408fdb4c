(** Structured signal tracing.

    Every layer of the stack carries instrumentation points that emit
    timestamped structured events into the {e domain-local} recording:
    signal sends ({!Mediactl_signaling.Channel}), signal deliveries
    ({!Mediactl_runtime.Netsys}), slot-state transitions
    ({!Mediactl_protocol.Slot}), goal-state changes (the
    [Mediactl_core] goal objects), and drop / duplicate / retransmit
    decisions ([Mediactl_net]).

    There is one capture form.  {!recording_packed} directs every
    emission into the domain's flat ring buffer and drains it into a
    self-contained {!Packed.t}; the monitor, the metrics and the JSONL
    writer all read that.  Structured {!event} records exist only at
    the rendering edge, decoded one at a time by {!Packed.iter}.

    The design is near-zero-cost when disabled: each site guards itself
    with {!enabled} — a domain-local lookup, a load, and a branch, no
    allocation — so the model checker and the benchmarks pay essentially
    nothing for the instrumentation.

    The recording flag, the clock, and the ring live in domain-local
    storage ([Domain.DLS]), one independent context per domain.  A fleet
    shard that records a session therefore cannot race with — or leak
    events into — sessions recording on other domains: each session's
    trace is numbered [0..n-1] by its own ring.  Within one domain,
    sessions record one at a time ({!recording_packed} is not
    reentrant). *)

type sig_event = {
  chan : string;  (** channel label, the [Netsys] channel name *)
  tun : int;
  box : string;  (** the acting box: sender of a send, receiver of a receive *)
  peer : string;
  initiator : bool;  (** the acting box is the channel initiator (the A end) *)
  signal : Mediactl_types.Signal.t;
}

(** What the network or the reliability layer decided about one frame. *)
type net_decision =
  | Dropped  (** the impaired network lost the frame *)
  | Passed of int  (** delivered; [Passed 2] is a network duplication *)
  | Retransmit of int  (** go-back-N retransmission, with its attempt number *)
  | Retry_exhausted  (** the sender gave up after [max_retries] *)
  | Dup_suppressed  (** sequence-number deduplication discarded a copy *)
  | Reorder_suppressed  (** go-back-N receiver discarded an out-of-order frame *)
  | Ack_sent
  | Ack_dropped

type kind =
  | Sig_send of sig_event
  | Sig_recv of sig_event
  | Meta_send of { chan : string; box : string }
  | Meta_recv of { chan : string; box : string }
  | Slot_transition of { slot : string; from_ : string; to_ : string; cause : string }
      (** [slot] is the slot label; [cause] the signal or operation name. *)
  | Goal of { goal : string; slot : string; from_ : string; to_ : string }
      (** A goal object drove or observed a slot-state change. *)
  | Net of { chan : string; decision : net_decision }

type event = { seq : int; at : float; kind : kind }
(** [seq] is the recording domain's emission counter (a total order even
    at equal timestamps, independent per domain); [at] is the current
    clock, in simulated milliseconds. *)

(** {2 The domain-local recording} *)

val enabled : unit -> bool
(** Instrumentation sites call this before building an event. *)

val emit : kind -> unit
(** Timestamp and record an event.  No-op when disabled. *)

(** {2 Allocation-free emitters}

    One per event shape.  Inside {!recording_packed} these write fixed
    width int entries straight into the domain's flat ring buffer —
    strings interned, the signal as a {!Mediactl_types.Signal_pack}
    word — allocating nothing.  Hot instrumentation sites use these;
    {!emit} remains for call sites that already hold a [kind] value. *)

val sig_send :
  chan:string -> tun:int -> box:string -> peer:string -> initiator:bool ->
  Mediactl_types.Signal.t -> unit

val sig_recv :
  chan:string -> tun:int -> box:string -> peer:string -> initiator:bool ->
  Mediactl_types.Signal.t -> unit

val meta_send : chan:string -> box:string -> unit
val meta_recv : chan:string -> box:string -> unit
val slot_transition : slot:string -> from_:string -> to_:string -> cause:string -> unit
val goal : goal:string -> slot:string -> from_:string -> to_:string -> unit
val net : chan:string -> net_decision -> unit

val set_clock : (unit -> float) -> unit
(** Timestamp source, typically [fun () -> Timed.now sim] (see
    {!Mediactl_runtime.Timed.observe}).  Defaults to a constant [0.];
    event ordering is then carried by [seq] alone. *)

val reset_clock : unit -> unit

(** {2 Packed traces}

    {!recording_packed} directs every emission into the domain's flat
    ring buffer (reused, with its capacity, across recordings on the
    same domain) and drains it at the end into a {!Packed.t}: a
    self-contained snapshot whose intern ids have been resolved, safe
    to ship across domains and to decode anywhere.  Event [i] of a
    packed trace reads [seq = i]. *)

module Packed : sig
  type t

  val length : t -> int
  val tag : t -> int -> int
  (** Entry shape: 0 [Sig_send], 1 [Sig_recv], 2 [Meta_send],
      3 [Meta_recv], 4 [Slot_transition], 5 [Goal], 6 [Net]. *)

  val at : t -> int -> float

  (** Field accessors for signal entries (tags 0 and 1); the returned
      strings and signals are shared (interned), so scanning a packed
      trace through these allocates nothing per event. *)

  val sig_chan : t -> int -> string
  val sig_tun : t -> int -> int
  val sig_box : t -> int -> string
  val sig_peer : t -> int -> string
  val sig_initiator : t -> int -> bool
  val sig_signal : t -> int -> Mediactl_types.Signal.t

  (** Net-entry (tag 6) accessors.  [net_decision] rebuilds the
      decision value (one small allocation for the payload-carrying
      constructors). *)

  val net_chan : t -> int -> string
  val net_decision : t -> int -> net_decision

  val kind : t -> int -> kind
  (** Decode one entry to the structured form (allocates). *)

  val event : t -> int -> event

  val iter : (event -> unit) -> t -> unit
  (** Decode the entries in order, one record at a time. *)

  val empty : t
  (** The zero-length trace ([append empty t = t]); a cheap slot filler
      for pooled per-session bookkeeping. *)

  val append : t -> t -> t
  (** [append a b] is the events of [a] followed by those of [b] as one
      self-contained trace: the second segment's string ids and signal
      indices are rewritten against the merged tables, timestamps are
      preserved verbatim, and event [i] of the result reads [seq = i].
      This is how a churned session's setup and teardown recording
      brackets are joined into one session trace at retirement. *)
end

val recording_packed : (unit -> 'a) -> 'a * Packed.t
(** [recording_packed f] runs [f] with the domain's ring recording —
    emissions write int entries into the ring — and returns its result
    with the trace, drained into a portable {!Packed.t}.  Recording and
    the clock are cleared afterwards, also on exceptions.  Not
    reentrant: raises [Invalid_argument] inside another recording. *)

val live : int -> int * Packed.t
(** [live from], inside a recording on this domain, reads the ring as
    it stands: the number of entries recorded so far, and a snapshot of
    those from index [from] on (empty when [from] is at or past the
    end), so entry [i] of the snapshot is the recording's entry
    [from + i].  A long-lived recording (the daemon) judges a window of
    its history with this without draining it.  Outside a recording it
    is [(0, Packed.empty)]. *)

(** {2 Rendering} *)

val pp_kind : Format.formatter -> kind -> unit
val pp_event : Format.formatter -> event -> unit

val event_to_json : event -> string
(** One JSON object, no trailing newline. *)

val write_jsonl : string -> Packed.t -> unit
(** [write_jsonl path p] writes one JSON object per event, one per
    line. *)
