(** The media-control daemon: one {!Wallclock} select loop driving one
    shared network that carries every call, one listening socket, and
    one long trace recording: {!run} records into the domain's trace
    ring for its whole life, and [STATUS] judges each call on its own
    window of that recording ({!Call.verdict}).

    The listener speaks both protocols on the same address: a fresh
    connection whose first four bytes are {!Wire.magic} is a binary
    wire peer (another daemon bridging a call here); anything else is
    a newline-ASCII {!Control} client.

    Bridged calls ride the runtime's impairment hook: frames addressed
    to a call's proxy box are shipped to the peer daemon and delivered
    into its network, with synthetic proxy-side trace events keeping
    each daemon's recording complete for the Fig. 5 monitor (see
    {!Call}).

    Creating a daemon sets the domain's trace clock to its driver and
    ignores [SIGPIPE] (a vanished peer must surface as [EPIPE]). *)

open Mediactl_runtime

type t

val create :
  ?n:float ->
  ?c:float ->
  ?trace_path:string ->
  ?log:(string -> unit) ->
  listener:(Unix.file_descr * Transport.addr) ->
  unit ->
  t
(** [create ~listener:(Transport.listen addr) ()] builds a daemon
    around an already-bound listener — passed as an fd so a parent
    process can bind (learning an ephemeral port) before forking the
    daemon child.  [n]/[c] are the driver's latency parameters;
    [trace_path], if given, receives the full JSONL trace at shutdown;
    [log] gets one human line per notable event (default: silent). *)

val run : t -> unit
(** Drive the loop, recording, until a [QUIT] request or {!shutdown};
    the trace artifact is written from the drained recording before
    returning.  Must not run inside another {!Trace.recording_packed}. *)

val shutdown : t -> unit
(** Close every connection and the listener and stop the loop.
    Idempotent. *)

val loop : t -> Wallclock.t
val driver : t -> Timed.t
val bound : t -> Transport.addr
val calls : t -> Call.t list
