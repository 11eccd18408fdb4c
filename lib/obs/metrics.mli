(** Per-run metrics aggregated from a captured trace.

    Counters and latency histograms (built on
    {!Mediactl_sim.Stats.histogram}) over one simulation run: signal
    round-trips, open races, retransmissions, time-to-[bothFlowing].
    [mediactl_sim --metrics out.json] writes the {!to_json} form. *)

type t = {
  events : int;
  duration : float;  (** span of the trace in simulated ms *)
  sends_by_signal : (string * int) list;  (** by descending count *)
  recvs : int;
  slot_transitions : int;
  goal_changes : int;
  open_races : int;  (** crossing-[open] occurrences (from the monitor) *)
  drops : int;
  dups : int;  (** network-layer duplications *)
  retransmissions : int;
  retries_exhausted : int;
  dup_suppressed : int;  (** receiver-side dedup + reorder discards *)
  acks : int;
  round_trip : Mediactl_sim.Stats.t;
      (** per tunnel, first [open] send to the matching [oack] receipt, ms *)
  time_to_flowing : Mediactl_sim.Stats.t;
      (** per tunnel, trace start to both sides Flowing, ms *)
  violations : int;  (** protocol violations the monitor found *)
}

val of_packed : Trace.Packed.t -> t
(** Scan a packed capture through the {!Trace.Packed} field accessors,
    so no per-event records are built; [open_races], [time_to_flowing]
    and [violations] come from {!Monitor.replay_packed}. *)

(** {2 Per-session registries}

    A fleet computes one {!t} per session from that session's own trace,
    then folds them into an aggregate: counters add, latency samples
    pool (so percentiles are over all sessions), and [duration] sums to
    total simulated milliseconds across sessions. *)

val empty : t

type acc
(** The accumulator: flat mutable counters and pooled samples, so
    adding a registry costs its own size, not the aggregate's. *)

val acc : unit -> acc
val add : acc -> t -> unit
val total : acc -> t

val merge_all : t list -> t
(** [total] of an accumulator every registry was [add]ed to, in list
    order. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** One JSON object; histograms use 8 equal-width bins. *)

val write_json : string -> t -> unit
