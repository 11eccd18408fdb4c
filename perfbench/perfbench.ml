(* perfbench: the measuring program behind perfbench/run.py.

     perfbench.exe WORKLOAD --seed N --seconds S --trace 0|1 --size full|small
     perfbench.exe WORKLOAD ... --probe-setup

   WORKLOAD is fleet-lossy, churn-resident or check-star (daemon-bridge
   is driven from run.py, over sockets).  The program prints
   "perfbench-ready <unix time>" when its set-up is done and the first
   measured operation starts, then, as its last line, one JSON object
   with the measured figures, the outputs run.py checks (digest,
   verdict) and its own consistency errors.  With --probe-setup it
   exits right after the ready line.

   Untraced (--trace 0) runs repeat one identical round — a fleet
   batch, a churn horizon, one exhaustive check — until S seconds have
   passed, and report figures over the whole run.  A traced run (--trace 1)
   makes one untraced round and then the same work again with the
   benchmark's own spans around each public call into the layers, so
   the two walls give the tracing overhead and the traced outputs must
   reproduce the untraced digest or verdict.  Spans are aggregated in
   memory (count, total, self) and written out with the result. *)

open Mediactl_sim
open Mediactl_obs
open Mediactl_runtime
open Mediactl_apps
open Mediactl_mc

let now = Unix.gettimeofday

(* Every workload runs on one domain; run.py pins the process to one core
   and refuses a host with fewer cores than this. *)
let jobs = 1

(* ------------------------------------------------------------------ *)
(* Samples and statistics                                              *)

(* The samples of a growable buffer, as an array. *)
let floats v = Array.of_list (Vec.to_list v)

(* Linear interpolation between closest ranks; 0 on no samples. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let r = p *. float_of_int (n - 1) in
    let lo = int_of_float r in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    s.(lo) +. ((s.(hi) -. s.(lo)) *. (r -. float_of_int lo))
  end

let median xs = percentile xs 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Spans: aggregated per name, self time = total minus child spans     *)

module Span = struct
  type t = {
    name : string;
    mutable count : int;
    mutable total : float;
    mutable child : float;
    mutable top : float;  (** time spent as an outermost span *)
  }

  let registry : t list ref = ref []

  let make name =
    let s = { name; count = 0; total = 0.0; child = 0.0; top = 0.0 } in
    registry := s :: !registry;
    s

  let stack = Array.make 16 (make "root")
  let starts = Array.make 16 0.0
  let depth = ref 0

  let enter s =
    stack.(!depth) <- s;
    starts.(!depth) <- now ();
    incr depth

  let leave () =
    decr depth;
    let d = !depth in
    let s = stack.(d) in
    let dt = now () -. starts.(d) in
    s.count <- s.count + 1;
    s.total <- s.total +. dt;
    if d > 0 then stack.(d - 1).child <- stack.(d - 1).child +. dt else s.top <- s.top +. dt

  let timed s f =
    enter s;
    let r = f () in
    leave ();
    r

  let self s = s.total -. s.child
  let covered () = List.fold_left (fun acc s -> acc +. s.top) 0.0 !registry
  let used () = List.rev (List.filter (fun s -> s.count > 0) !registry)
end

let sp_create = Span.make "session.create"
let sp_run = Span.make "session.run"
let sp_launch = Span.make "churn.launch"
let sp_build = Span.make "session.build"
let sp_boot = Span.make "session.boot"
let sp_drive = Span.make "drive"
let sp_metrics = Span.make "analyze.metrics"
let sp_monitor = Span.make "analyze.monitor"
let sp_judge = Span.make "analyze.judge"
let sp_merge = Span.make "fleet.merge"
let sp_retire = Span.make "churn.retire"
let sp_digest = Span.make "churn.digest"
let sp_explore = Span.make "mc.explore"
let sp_succ = Span.make "mc.successors"
let sp_pack = Span.make "mc.pack"
let sp_safety = Span.make "mc.safety"
let sp_temporal = Span.make "mc.temporal"

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable digest : string;
  mutable verdict : string;
  mutable rounds : int;
  per_round : float Vec.t;  (** throughput of each untraced round *)
  values : (string, float) Hashtbl.t;  (** end-to-end or per-layer, by name *)
}

let result () =
  {
    attempted = 0;
    failed = 0;
    errors = [];
    digest = "";
    verdict = "";
    rounds = 0;
    per_round = Vec.create ();
    values = Hashtbl.create 64;
  }

let set r name v = Hashtbl.replace r.values name v
let fail r msg = r.errors <- msg :: r.errors

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" Fun.id
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let print_result ~workload ~seed ~trace r =
  let values =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.values [] |> List.sort compare
  in
  let spans =
    List.map
      (fun (s : Span.t) ->
        Printf.sprintf "{\"name\":%s,\"count\":%d,\"total_s\":%s,\"self_s\":%s}"
          (json_string s.Span.name) s.Span.count (json_float s.Span.total)
          (json_float (Span.self s)))
      (Span.used ())
  in
  Printf.printf
    "{\"workload\":%s,\"seed\":%d,\"jobs\":%d,\"trace\":%b,\"ocaml\":%s,\"domains\":%d,\"attempted\":%d,\"failed\":%d,\"rounds\":%d,\"per_round\":[%s],\"digest\":%s,\"verdict\":%s,\"errors\":[%s],\"values\":{%s},\"spans\":[%s]}\n%!"
    (json_string workload) seed jobs trace (json_string Sys.ocaml_version)
    (Domain.recommended_domain_count ())
    r.attempted r.failed r.rounds
    (String.concat "," (Array.to_list (Array.map json_float (floats r.per_round))))
    (json_string r.digest) (json_string r.verdict)
    (String.concat "," (List.map json_string (List.rev r.errors)))
    (String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ json_float v) values))
    (String.concat "," spans)

(* Set by --probe-setup: stop once set-up is done. *)
let probe = ref false

let ready () =
  Printf.printf "perfbench-ready %.6f\n%!" (now ());
  if !probe then exit 0

(* Repeat [round] until [seconds] have passed; at least once.  Each
   round starts after a full major collection (Gc.compact), so no round
   pays for the garbage an earlier one left behind.  The peak RSS is the
   process's VmHWM after the first round: start-up plus one round.
   Later rounds keep raising it (check-star's grows from 300 to 480 MB
   over seven rounds, the pages of earlier rounds staying resident), so
   a high-water mark over the whole run would depend on how many rounds
   the host's speed allowed. *)
let repeat r ~seconds round =
  let t0 = now () in
  let rec go k =
    Gc.compact ();
    round ();
    if k = 1 then set r "peak_rss_mb" (vm_hwm_kb () /. 1024.0);
    if now () -. t0 < seconds then go (k + 1) else k
  in
  go 1

(* A traced run compares its traced pass with an untraced twin; both
   follow one discarded untraced round, so neither pays the process's
   first-touch costs alone. *)
let warm_up round =
  Gc.compact ();
  round ();
  Gc.compact ()

(* ------------------------------------------------------------------ *)
(* Session outcomes: digest and checks                                 *)

(* The per-session digest Fleet.churn folds into its fleet digest: MD5
   over the resolved outcome (decoded event JSON, never intern ids),
   XOR-combined so the order of sessions does not matter. *)
let digest_outcome buf (o : Session.outcome) =
  Buffer.clear buf;
  Buffer.add_string buf (string_of_int o.Session.id);
  Buffer.add_char buf ':';
  Buffer.add_string buf o.Session.scenario;
  Buffer.add_char buf ':';
  Buffer.add_string buf (string_of_int o.Session.events);
  Buffer.add_char buf ':';
  Buffer.add_string buf (Printf.sprintf "%.6f" o.Session.end_time);
  Buffer.add_char buf ':';
  Buffer.add_string buf (if o.Session.conformant then "ok" else "bad");
  Buffer.add_string buf (string_of_int o.Session.violations);
  (match o.Session.verdict with
  | None -> Buffer.add_string buf ":-"
  | Some Monitor.Satisfied -> Buffer.add_string buf ":S"
  | Some (Monitor.Violated m) ->
    Buffer.add_string buf ":V";
    Buffer.add_string buf m
  | Some (Monitor.Undetermined m) ->
    Buffer.add_string buf ":U";
    Buffer.add_string buf m);
  Trace.Packed.iter
    (fun e ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf (Trace.event_to_json e))
    o.Session.trace;
  Digest.string (Buffer.contents buf)

let digest_xor acc (d : string) =
  for i = 0 to 15 do
    Bytes.set acc i (Char.chr (Char.code (Bytes.get acc i) lxor Char.code d.[i]))
  done

let digest_outcomes outcomes =
  let acc = Bytes.make 16 '\000' in
  let buf = Buffer.create 4096 in
  List.iter (fun o -> digest_xor acc (digest_outcome buf o)) outcomes;
  Digest.to_hex (Bytes.to_string acc)

(* A session fails when the monitor rejects its trace or its judged
   obligation is not satisfied; the reason, or None for a session that
   passed. *)
let session_problem (o : Session.outcome) =
  if not o.Session.conformant then
    Some (Printf.sprintf "not conformant (%d violations)" o.Session.violations)
  else
    match o.Session.verdict with
    | None | Some Monitor.Satisfied -> None
    | Some (Monitor.Violated m) -> Some ("violated: " ^ m)
    | Some (Monitor.Undetermined m) -> Some ("undetermined: " ^ m)

(* A runtime run's verdict, which run.py compares with the recorded one at
   every seed: "conformant/satisfied" until a round has a failing
   session. *)
let runtime_verdict r ~bad =
  if bad > 0 then r.verdict <- "failing"
  else if r.verdict = "" then r.verdict <- "conformant/satisfied"

(* Per-session counts from each session's Metrics registry and trace
   length. *)
let add_counts r (sessions : (Metrics.t * int) list) =
  let n = float_of_int (Stdlib.max 1 (List.length sessions)) in
  let avg f = List.fold_left (fun acc s -> acc +. float_of_int (f s)) 0.0 sessions /. n in
  let m f ((m : Metrics.t), _) = f m in
  set r "netsys.deliveries" (avg (m (fun m -> m.Metrics.recvs)));
  set r "slot.transitions" (avg (m (fun m -> m.Metrics.slot_transitions)));
  set r "trace.entries" (avg snd);
  set r "impair.drops" (avg (m (fun m -> m.Metrics.drops)));
  set r "impair.dups" (avg (m (fun m -> m.Metrics.dups)));
  set r "reliable.retransmissions" (avg (m (fun m -> m.Metrics.retransmissions)));
  set r "reliable.acks" (avg (m (fun m -> m.Metrics.acks)));
  set r "reliable.dup_suppressed" (avg (m (fun m -> m.Metrics.dup_suppressed)))

let counts_of (o : Session.outcome) = (o.Session.metrics, Trace.Packed.length o.Session.trace)

(* ------------------------------------------------------------------ *)
(* Traced session phases, driven through Session's public functions    *)

let drive_events = ref 0
let drive_words = ref 0.0

(* What Session.run / Session.launch do inside their recording bracket,
   with a span per phase: the network thunk (up to make_driver), the
   driver plus boot closure, and the drive to quiescence.  The engine
   seed is not reproduced: the timed runtime draws nothing from it, so
   the untraced digest is reproduced regardless — which the traced run
   checks. *)
let traced_drive ?sched ?until s =
  Trace.recording_packed (fun () ->
    Span.enter sp_build;
    let sim =
      Session.boot_external s ~make_driver:(fun net ->
        Span.leave ();
        Span.enter sp_boot;
        let sim =
          Timed.create ?sched ~record_msc:false ~n:(Session.latency_n s)
            ~c:(Session.latency_c s) net
        in
        Timed.observe sim;
        sim)
    in
    Span.leave ();
    Span.enter sp_drive;
    let w0 = Gc.minor_words () in
    let events = Timed.run ?until sim in
    drive_words := !drive_words +. (Gc.minor_words () -. w0);
    Span.leave ();
    drive_events := !drive_events + events;
    (events, Timed.now sim))

let traced_analyze s ~events ~end_time trace =
  let metrics = Span.timed sp_metrics (fun () -> Metrics.of_packed trace) in
  let report = Span.timed sp_monitor (fun () -> Monitor.replay_packed trace) in
  let verdict =
    Span.timed sp_judge (fun () -> Option.map (fun judge -> judge trace) (Session.judge s))
  in
  {
    Session.id = Session.id s;
    scenario = Session.scenario s;
    events;
    end_time;
    trace;
    metrics;
    conformant = Monitor.conformant report;
    violations = List.length report.Monitor.violations;
    verdict;
  }

let us_per (s : Span.t) n = ratio s.Span.total (float_of_int n) *. 1e6

let set_session_layers r ~sessions =
  set r "session.create_us" (us_per sp_create sessions);
  set r "session.build_us" (us_per sp_build sessions);
  set r "session.boot_us" (us_per sp_boot sessions);
  let ev = float_of_int !drive_events in
  set r "drive.ns_per_event" (ratio sp_drive.Span.total ev *. 1e9);
  set r "drive.events_per_s" (ratio ev sp_drive.Span.total);
  set r "drive.minor_words_per_event" (ratio !drive_words ev);
  set r "analyze.metrics_us" (us_per sp_metrics sessions);
  set r "analyze.monitor_us" (us_per sp_monitor sessions);
  set r "analyze.judge_us" (us_per sp_judge sessions)

let set_ledger r ~wall ~untraced_wall =
  set r "ledger.unattributed_frac" (ratio (wall -. Span.covered ()) wall);
  set r "ledger.trace_overhead_frac" (ratio wall untraced_wall -. 1.0)

(* Wall gaps between consecutive session constructions on one domain,
   in ms per session, averaged over samples of [block] constructions:
   over a batch, the cost of one session end to end; under churn, the
   shard's service time per arrival, retirements between arrivals
   included. *)
type gaps = { block : int; mutable seen : int; mutable last : float; samples : float Vec.t }

let gaps ~block samples = { block; seen = 0; last = Float.nan; samples }

let gap_tick g =
  if g.seen mod g.block = 0 then begin
    let t = now () in
    if not (Float.is_nan g.last) then
      Vec.push g.samples ((t -. g.last) *. 1000.0 /. float_of_int g.block);
    g.last <- t
  end;
  g.seen <- g.seen + 1

(* An untraced run's figures are taken over the whole run: latency
   percentiles over every sample of every round, throughput as the work
   of all rounds over their summed wall time.  On a shared host whose
   speed wanders from round to round these use every round, where a
   median over rounds rests on the middle one or two. *)
let set_latency r samples =
  let xs = floats samples in
  set r "latency_ms_p50" (median xs);
  set r "latency_ms_p99" (percentile xs 0.99);
  set r "latency_samples" (float_of_int (Array.length xs))

(* Every round does the same work, so the whole run's rate is the
   harmonic mean of the rounds' rates. *)
let set_throughput r =
  let rates = floats r.per_round in
  set r "throughput_per_s"
    (float_of_int (Array.length rates) /. Array.fold_left (fun acc x -> acc +. (1.0 /. x)) 0.0 rates)

(* ------------------------------------------------------------------ *)
(* fleet-lossy                                                         *)

let fleet_loss = 0.05
let fleet_mk ~id ~rng = Scenario.session ~loss:fleet_loss Scenario.Mixed ~id ~rng

(* A failing session is counted in [failed] and is a wrong output: the
   first failing round names its first one in an error. *)
let fleet_check r (outcomes : Session.outcome list) =
  let bad = List.filter_map (fun o -> Option.map (fun p -> (o, p)) (session_problem o)) outcomes in
  r.attempted <- r.attempted + List.length outcomes;
  r.failed <- r.failed + List.length bad;
  let first_failing = r.verdict <> "failing" in
  runtime_verdict r ~bad:(List.length bad);
  match bad with
  | (o, p) :: _ when first_failing ->
    fail r
      (Printf.sprintf "%d of %d sessions failed; session %d: %s" (List.length bad)
         (List.length outcomes) o.Session.id p)
  | _ -> ()

(* A latency sample spans one Mixed cycle of 5 sessions, one of each
   kind, whose costs differ by an order of magnitude: per-session gaps
   would make a multimodal distribution whose median jumps between
   modes. *)
let fleet_round r ~seed ~sessions ~lat =
  let g = gaps ~block:(List.length Scenario.all) lat in
  let mk ~id ~rng =
    gap_tick g;
    fleet_mk ~id ~rng
  in
  let q0 = Gc.quick_stat () in
  let t0 = now () in
  let outcomes, summary = Fleet.run ~jobs ~sessions ~seed mk in
  let wall = now () -. t0 in
  let q1 = Gc.quick_stat () in
  fleet_check r outcomes;
  (* The digest costs about as much as the round; the first round's
     stands for all, the traced run re-derives it. *)
  if r.digest = "" then r.digest <- digest_outcomes outcomes;
  (wall, summary, q0, q1)

let set_gc r ~events (q0 : Gc.stat) (q1 : Gc.stat) =
  set r "gc.minor_words_per_event" (ratio (q1.Gc.minor_words -. q0.Gc.minor_words) events);
  set r "gc.major_collections" (float_of_int (q1.Gc.major_collections - q0.Gc.major_collections));
  set r "gc.top_heap_mb" (float_of_int q1.Gc.top_heap_words *. 8.0 /. 1048576.0)

let fleet_traced ~seed ~sessions =
  let root = Rng.create seed in
  let streams = Array.init sessions (fun _ -> Rng.split root) in
  let acc = ref [] in
  let t0 = now () in
  (* descending ids, the order Fleet.run's single shard uses *)
  for i = sessions - 1 downto 0 do
    let s = Span.timed sp_create (fun () -> fleet_mk ~id:i ~rng:streams.(i)) in
    Span.enter sp_run;
    let (events, end_time), trace = traced_drive s in
    let o = traced_analyze s ~events ~end_time trace in
    Span.leave ();
    acc := o :: !acc
  done;
  let outcomes = !acc in
  ignore
    (Span.timed sp_merge (fun () ->
       Metrics.merge_all (List.map (fun (o : Session.outcome) -> o.Session.metrics) outcomes))
      : Metrics.t);
  let wall = now () -. t0 in
  (outcomes, wall)

let fleet ~seed ~seconds ~trace ~size r =
  let sessions = match size with `Full -> 4000 | `Small -> 40 in
  let lat = Vec.create () in
  ready ();
  if not trace then begin
    r.rounds <-
      repeat r ~seconds (fun () ->
        let wall, _, _, _ = fleet_round r ~seed ~sessions ~lat in
        Vec.push r.per_round (float_of_int sessions /. wall));
    set_throughput r;
    set_latency r lat
  end
  else begin
    warm_up (fun () -> ignore (fleet_round r ~seed ~sessions ~lat));
    let untraced_wall, summary, q0, q1 = fleet_round r ~seed ~sessions ~lat in
    set_gc r ~events:(float_of_int summary.Fleet.engine_events) q0 q1;
    Gc.compact ();
    let outcomes, wall = fleet_traced ~seed ~sessions in
    if digest_outcomes outcomes <> r.digest then
      fail r "traced fleet run did not reproduce the untraced digest";
    r.rounds <- 1;
    set_session_layers r ~sessions;
    set r "fleet.merge_us" (us_per sp_merge sessions);
    add_counts r (List.map counts_of outcomes);
    set_ledger r ~wall ~untraced_wall
  end

(* ------------------------------------------------------------------ *)
(* churn-resident                                                      *)

let churn_holding = 4000.0
let churn_duration = 1500.0
let churn_until = 60_000.0
let churn_grace = 30_000.0
let churn_mk ~id ~rng = Scenario.churn_session Scenario.Path ~id ~rng

(* Every churned Path session is judged, so a session fails when it is
   not conformant or not satisfied, or was never retired; the summary
   gives a lower bound on their number, never 0 when one failed.  Any
   failure is also a wrong output. *)
let churn_check r (s : Fleet.churn_summary) =
  let retired = s.Fleet.c_retired in
  let bad =
    Stdlib.max (retired - s.Fleet.c_conformant) (retired - s.Fleet.c_satisfied)
    + (s.Fleet.c_started - retired)
  in
  r.attempted <- r.attempted + s.Fleet.c_started;
  r.failed <- r.failed + bad;
  let first_failing = r.verdict <> "failing" in
  runtime_verdict r ~bad;
  if bad > 0 && first_failing then
    fail r
      (Printf.sprintf "churn: %d started, %d retired, %d conformant, %d satisfied"
         s.Fleet.c_started retired s.Fleet.c_conformant s.Fleet.c_satisfied)

(* One Fleet.churn horizon; the constructor wrapper stamps the gaps
   between the Poisson arrivals that follow the initial fill (ids from
   [target] on), in samples of 32.  Gaps during the fill, or over fewer
   arrivals, mix launches with and without a major-GC slice and the
   hangups between arrivals unevenly: their median jumped between modes
   (9 and 16 us per arrival) from one round to the next. *)
let churn_round r ~seed ~target ~lat =
  let g = gaps ~block:32 lat in
  let mk ~id ~rng =
    if id >= target then gap_tick g;
    churn_mk ~id ~rng
  in
  let s =
    Fleet.churn ~jobs ~session_until:churn_until ~grace:churn_grace ~target_population:target
      ~mean_holding:churn_holding ~duration:churn_duration ~seed mk
  in
  churn_check r s;
  if r.digest = "" then r.digest <- s.Fleet.c_digest
  else if r.digest <> s.Fleet.c_digest then fail r "churn digest changed between identical rounds";
  s

type resident = {
  mutable rs_session : Session.t option;
  mutable rs_setup : Trace.Packed.t;
  mutable rs_events : int;
}

(* Fleet.churn's single-shard schedule, rebuilt from the same root
   seed: ids [0, target) arrive at t = 0, later ids as a Poisson
   process, each with its stream split in id order and its holding
   time drawn from that stream before the constructor consumes it. *)
let churn_traced r ~seed ~target =
  let rate = float_of_int target /. churn_holding in
  let root = Rng.create seed in
  let ats = Vec.create () in
  let streams = ref [] in
  for _ = 1 to target do
    Vec.push ats 0.0;
    streams := Rng.split root :: !streams
  done;
  let t = ref (Rng.exponential root ~mean:(1.0 /. rate)) in
  while !t < churn_duration do
    Vec.push ats !t;
    streams := Rng.split root :: !streams;
    t := !t +. Rng.exponential root ~mean:(1.0 /. rate)
  done;
  let ats = floats ats in
  let streams = Array.of_list (List.rev !streams) in
  let wheel = Twheel.create () in
  let seqr = ref 0 in
  let insert key v =
    Twheel.insert wheel ~key ~seq:!seqr v;
    incr seqr
  in
  Array.iteri (fun i at -> insert at (`Arrive i)) ats;
  let pool =
    Spool.create
      ~make:(fun () -> { rs_session = None; rs_setup = Trace.Packed.empty; rs_events = 0 })
      ~clear:(fun c ->
        c.rs_session <- None;
        c.rs_setup <- Trace.Packed.empty;
        c.rs_events <- 0)
      ()
  in
  let acc = Bytes.make 16 '\000' in
  let buf = Buffer.create 4096 in
  let outcomes = ref [] in
  let setups = ref [] in
  let probes = ref 0 in
  let started = ref 0 in
  let bad = ref 0 and first_bad = ref "" in
  let retire slot =
    let c = Spool.get pool slot in
    (match c.rs_session with
    | None -> ()
    | Some s ->
      let o =
        Span.timed sp_retire (fun () ->
          Session.retire ~grace:churn_grace ~setup:c.rs_setup ~setup_events:c.rs_events s)
      in
      Span.timed sp_digest (fun () -> digest_xor acc (digest_outcome buf o));
      if !probes < 200 then begin
        incr probes;
        setups := c.rs_setup :: !setups
      end;
      outcomes := counts_of o :: !outcomes;
      match session_problem o with
      | None -> ()
      | Some p ->
        if !bad = 0 then first_bad := Printf.sprintf "session %d: %s" o.Session.id p;
        incr bad);
    Spool.release pool slot
  in
  let t0 = now () in
  let rec drain () =
    match Twheel.pop wheel with
    | None -> ()
    | Some (_, _, `Hangup slot) ->
      retire slot;
      drain ()
    | Some (_, _, `Arrive i) ->
      let rng = streams.(i) in
      let holding = Rng.exponential rng ~mean:churn_holding in
      let s = Span.timed sp_create (fun () -> churn_mk ~id:i ~rng) in
      let slot, c = Spool.acquire pool in
      Span.enter sp_launch;
      let (events, _), setup =
        traced_drive ~sched:Engine.Heap ~until:churn_until s
      in
      Span.leave ();
      c.rs_session <- Some s;
      c.rs_setup <- setup;
      c.rs_events <- events;
      incr started;
      let hang = ats.(i) +. holding in
      if hang < churn_duration then insert hang (`Hangup slot);
      drain ()
  in
  drain ();
  Spool.iter_live (fun slot _ -> retire slot) pool;
  let wall = now () -. t0 in
  (* Session.retire joins the two trace segments inside; the join is
     timed here as a probe on this run's own setup segments, outside
     the ledger window. *)
  let appends =
    Array.of_list
      (List.map
         (fun seg ->
           let t = now () in
           ignore (Trace.Packed.append seg seg : Trace.Packed.t);
           (now () -. t) *. 1e6)
         !setups)
  in
  set r "trace.append_us" (median appends);
  if !bad > 0 then fail r (Printf.sprintf "traced churn: %d sessions failed; %s" !bad !first_bad);
  (Digest.to_hex (Bytes.to_string acc), !outcomes, !started, wall)

let churn ~seed ~seconds ~trace ~size r =
  let target = match size with `Full -> 10_000 | `Small -> 200 in
  let lat = Vec.create () in
  ready ();
  if not trace then begin
    r.rounds <-
      repeat r ~seconds (fun () ->
        let s = churn_round r ~seed ~target ~lat in
        Vec.push r.per_round s.Fleet.c_sessions_per_s);
    set_throughput r;
    set_latency r lat
  end
  else begin
    (* The traced run is single-domain, like its untraced twin. *)
    warm_up (fun () -> ignore (churn_round r ~seed ~target ~lat));
    let s = churn_round r ~seed ~target ~lat in
    let g = s.Fleet.c_gc in
    set r "gc.minor_words_per_event"
      (ratio g.Fleet.minor_words (float_of_int s.Fleet.c_engine_events));
    set r "gc.major_collections" (float_of_int g.Fleet.major_collections);
    set r "gc.top_heap_mb" (float_of_int g.Fleet.top_heap_words *. 8.0 /. 1048576.0);
    set r "gc.max_pause_ms" (g.Fleet.max_pause_s *. 1000.0);
    set r "spool.pool_slots" (float_of_int s.Fleet.c_pool_slots);
    set r "churn.peak_resident" (float_of_int s.Fleet.c_peak_resident);
    Gc.compact ();
    let digest, outcomes, started, wall = churn_traced r ~seed ~target in
    if digest <> r.digest then fail r "traced churn run did not reproduce the untraced digest";
    if started <> s.Fleet.c_started then
      fail r "traced churn run disagreed with Fleet.churn on arrivals";
    r.rounds <- 1;
    set_session_layers r ~sessions:started;
    set r "churn.launch_us" (us_per sp_launch started);
    set r "churn.retire_us" (us_per sp_retire started);
    add_counts r outcomes;
    set_ledger r ~wall ~untraced_wall:s.Fleet.c_wall_s
  end

(* ------------------------------------------------------------------ *)
(* check-star                                                          *)

let star_config = function
  | `Full ->
    Path_model.conf_config
      ~faults:{ Path_model.losses = 1; dups = 1; unrestricted = false }
      ~flowlinks:1
      ~parties:Mediactl_core.Semantics.[ Open_end; Open_end; Open_end ]
      ~chaos:0 ~modifies:0 ()
  | `Small ->
    Path_model.conf_config
      ~faults:{ Path_model.losses = 1; dups = 0; unrestricted = false }
      ~flowlinks:1
      ~parties:Mediactl_core.Semantics.[ Open_end; Open_end ]
      ~chaos:0 ~modifies:0 ()

let check_verdict (rep : Check.report) =
  let safety = match rep.Check.safety with Check.Safe -> "safe" | Check.Unsafe _ -> "unsafe" in
  let spec =
    match rep.Check.spec_result with
    | Check.Spec_holds -> "holds"
    | Check.Spec_violated _ -> "violated"
    | Check.Inconclusive _ -> "inconclusive"
  in
  safety ^ "/" ^ spec

let succ_calls = ref 0
let generated = ref 0
let packs = ref 0
let key_bytes = ref 0

module Timed_model = struct
  type state = Path_model.state
  type label = Path_model.label

  let successors s =
    Span.enter sp_succ;
    let r = Path_model.successors s in
    Span.leave ();
    incr succ_calls;
    generated := !generated + List.length r;
    r

  let pack s =
    Span.enter sp_pack;
    let k = Path_model.pack s in
    Span.leave ();
    incr packs;
    key_bytes := !key_bytes + String.length k;
    k

  let pp_label = Path_model.pp_label
  let pp_state = Path_model.pp_state
end

module E = Explorer.Make (Timed_model)

(* Check.run's safety scan, for the traced twin. *)
let safety_of (graph : E.graph) =
  let n = Array.length graph.E.states in
  let rec scan id =
    if id >= n then "safe"
    else
      let st = graph.E.states.(id) in
      match Path_model.error st with
      | Some _ -> "unsafe"
      | None ->
        if Csr.terminal graph.E.csr id
           && not (Path_model.clean st && Path_model.all_settled st)
        then "unsafe"
        else scan (id + 1)
  in
  scan 0

let spec_of config (graph : E.graph) =
  let lossy = config.Path_model.faults.Path_model.losses > 0 in
  let holds =
    List.mapi
      (fun k leg_spec ->
        let both_closed id = Path_model.leg_both_closed k graph.E.states.(id) in
        let both_flowing id =
          if lossy then Path_model.leg_ends_flowing k graph.E.states.(id)
          else Path_model.leg_both_flowing k graph.E.states.(id)
        in
        Temporal.check leg_spec graph.E.csr ~both_closed ~both_flowing = Temporal.Holds)
      (Path_model.leg_specs config)
  in
  if List.for_all Fun.id holds then "holds" else "violated"

let check_round r config =
  let q0 = Gc.quick_stat () in
  let t0 = now () in
  let rep = Check.run ~jobs config in
  let wall = now () -. t0 in
  let q1 = Gc.quick_stat () in
  let v = check_verdict rep in
  r.attempted <- r.attempted + 1;
  if v <> "safe/holds" || rep.Check.capped then begin
    r.failed <- r.failed + 1;
    fail r (Printf.sprintf "check: %s%s" v (if rep.Check.capped then ", capped" else ""))
  end;
  if r.verdict = "" then r.verdict <- v
  else if r.verdict <> v then fail r "checker verdict changed between identical rounds";
  (rep, wall, q0, q1)

let check ~seconds ~trace ~size r =
  let config = star_config size in
  ready ();
  if not trace then begin
    r.rounds <-
      repeat r ~seconds (fun () ->
        let _, wall, _, _ = check_round r config in
        Vec.push r.per_round (1.0 /. wall));
    set_throughput r;
    let walls = Vec.create () in
    Vec.iter (fun x -> Vec.push walls (1000.0 /. x)) r.per_round;
    set_latency r walls
  end
  else begin
    warm_up (fun () -> ignore (check_round r config));
    let rep, untraced_wall, q0, q1 = check_round r config in
    set_gc r ~events:0.0 q0 q1;
    set r "mc.minor_words_per_state"
      (ratio (q1.Gc.minor_words -. q0.Gc.minor_words) (float_of_int rep.Check.states));
    Gc.compact ();
    let t0 = now () in
    let graph =
      Span.timed sp_explore (fun () ->
        E.explore ~jobs ~unpack:(Path_model.unpack config) (Path_model.initial config))
    in
    let safety = Span.timed sp_safety (fun () -> safety_of graph) in
    let spec = Span.timed sp_temporal (fun () -> spec_of config graph) in
    let wall = now () -. t0 in
    if graph.E.capped || safety ^ "/" ^ spec <> r.verdict then
      fail r "traced check did not reproduce Check.run's verdicts";
    (* Temporal.check runs its own SCC pass per leg; one standalone pass
       over the same graph, outside the ledger window, prices it. *)
    let t = now () in
    ignore (Scc.compute graph.E.csr : Scc.t);
    set r "mc.scc_s" (now () -. t);
    let states = float_of_int (Array.length graph.E.states) in
    r.rounds <- 1;
    set r "mc.successors_ns" (ratio sp_succ.Span.total (float_of_int !succ_calls) *. 1e9);
    set r "mc.fanout" (ratio (float_of_int !generated) (float_of_int !succ_calls));
    set r "mc.pack_ns" (ratio sp_pack.Span.total (float_of_int !packs) *. 1e9);
    set r "mc.key_bytes" (ratio (float_of_int !key_bytes) (float_of_int !packs));
    set r "mc.explore_self_s" (Span.self sp_explore);
    set r "mc.safety_s" sp_safety.Span.total;
    set r "mc.temporal_s" sp_temporal.Span.total;
    set r "mc.states" states;
    set r "mc.transitions" (float_of_int graph.E.transition_count);
    set r "mc.new_state_frac" (ratio states (float_of_int !generated));
    set r "mc.states_per_s" (ratio states sp_explore.Span.total);
    set_ledger r ~wall ~untraced_wall
  end

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let usage () =
  prerr_endline
    "usage: perfbench.exe (fleet-lossy|churn-resident|check-star) --seed N --seconds S --trace \
     0|1 --size full|small [--probe-setup]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let workload, rest = match args with w :: rest -> (w, rest) | [] -> usage () in
  let seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let size = ref `Full in
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string v;
      parse rest
    | "--trace" :: v :: rest ->
      trace := v = "1";
      parse rest
    | "--size" :: "full" :: rest -> parse rest
    | "--size" :: "small" :: rest ->
      size := `Small;
      parse rest
    | "--probe-setup" :: rest ->
      probe := true;
      parse rest
    | _ -> usage ()
  in
  (try parse rest with Failure _ -> usage ());
  let run =
    match workload with
    | "fleet-lossy" -> fleet ~seed:!seed
    | "churn-resident" -> churn ~seed:!seed
    | "check-star" -> check
    | _ -> usage ()
  in
  let r = result () in
  run ~seconds:!seconds ~trace:!trace ~size:!size r;
  print_result ~workload ~seed:!seed ~trace:!trace r
