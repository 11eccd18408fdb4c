(** Trace conformance checking (runtime verification).

    The monitor replays a packed trace ({!Trace.Packed.t}) through an
    independent re-implementation of the Figure-5 media-channel state
    machine — it shares no code with [Mediactl_protocol.Slot] — and
    checks the [Lenabled]/[Renabled] protocol invariants plus the §V
    path obligations on the finite trace.  Verdicts are three-valued:
    satisfied, violated, or undetermined-at-cutoff, following the usual
    finite-trace LTL semantics of runtime verification.

    There is one replay core ({!machines}, fed by {!feed}).  A whole
    trace is judged with {!verdict}; the daemon feeds the core one
    call's window of its live recording, plus the receives still in
    flight on the wire, and judges that with {!judge}. *)

type side_summary = {
  box : string;
  side_initiator : bool;
  final : string;  (** final Fig. 5 state name *)
  enabled_rx : bool;  (** the [Lenabled]-style receive-media mirror *)
  enabled_tx : bool;
}

type tunnel_report = {
  chan : string;
  tun : int;
  summaries : side_summary list;
  sends : int;
  recvs : int;
  races : int;  (** crossing-[open] occurrences observed *)
  quiescent : bool;  (** per direction, sends = receives at cutoff *)
  first_all_flowing : float option;  (** time all sides first reached Flowing *)
  tunnel_violations : string list;
}

type report = { tunnels : tunnel_report list; violations : string list }

val replay_packed : Trace.Packed.t -> report
(** Run every tunnel appearing in the trace through the Fig. 5 machine.
    Violations collect illegal sends, unexpected receives, and
    inconsistent quiescent state pairs (e.g. one side stuck in
    [closing] because its [closeack] was lost).  Signal entries are
    read through the flat {!Trace.Packed} accessors, so no per-event
    records are materialized. *)

val conformant : report -> bool
(** No violations anywhere in the trace. *)

(** {2 Path obligations}

    The four §V obligation shapes, matching
    [Mediactl_core.Semantics.spec]. *)

type obligation =
  | Eventually_always_closed  (** [<>[] bothClosed] *)
  | Eventually_always_not_flowing  (** [<>[] !bothFlowing] *)
  | Always_eventually_flowing  (** [[]<> bothFlowing] *)
  | Closed_or_flowing  (** [(<>[] bothClosed) \/ ([]<> bothFlowing)] *)

val obligation_to_string : obligation -> string

type verdict = Satisfied | Violated of string | Undetermined of string

type ends = { left : string * string * int; right : string * string * int }
(** One leg's end slots, each as [(box, channel, tunnel)].  A two-ended
    path is a single leg; an N-party topology is a list of legs, one per
    participant. *)

val verdict :
  ?structural:bool -> obligation -> legs:ends list -> Trace.Packed.t -> verdict
(** Evaluate an obligation on a finite trace, quantified over N legs:
    the closed/flowing predicates are the conjunction over every leg's
    end pair (allClosed / allFlowing), so a conference is satisfied only
    when {e every} participant leg is.  A liveness obligation is decided
    only at a quiescent cutoff (no signal in flight on any tunnel),
    where infinite stuttering of the final state is the sole
    continuation the system itself would produce — the same
    terminal-state reading the model checker's [Temporal] module uses.
    A non-quiescent cutoff yields [Undetermined].  [structural] weakens
    flowing to "both end states are Flowing" per leg, dropping the
    descriptor/selector agreement refinement — the form the model
    checker falls back to under loss budgets. *)

(** {2 The replay core}

    {!verdict} is [feed] over the whole trace followed by [judge].  A
    caller that judges part of a longer recording feeds the core
    itself. *)

type machines
(** Every tunnel's Fig. 5 machine seen so far. *)

val machines : unit -> machines

val feed : ?chan:string -> ?first:int -> machines -> Trace.Packed.t -> unit
(** Replay the trace's signal entries — only those on channel [chan]
    when given.  Entry [i] is numbered [first + i] (default [first] 0)
    in violation messages, so a window of a longer recording keeps the
    recording's sequence numbers. *)

val feed_event : machines -> Trace.event -> unit
(** Replay one decoded signal event; other kinds are ignored. *)

val judge : ?structural:bool -> obligation -> legs:ends list -> machines -> verdict
(** {!verdict} over what has been fed.  Finalizes the machines: feed
    nothing more afterwards. *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_tunnel_report : Format.formatter -> tunnel_report -> unit
val pp_report : Format.formatter -> report -> unit
