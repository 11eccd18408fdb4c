open Mediactl_sim

type t = {
  events : int;
  duration : float;
  sends_by_signal : (string * int) list;  (* descending count *)
  recvs : int;
  slot_transitions : int;
  goal_changes : int;
  open_races : int;
  drops : int;
  dups : int;
  retransmissions : int;
  retries_exhausted : int;
  dup_suppressed : int;
  acks : int;
  round_trip : Stats.t;  (* per tunnel: first open -> first oack receipt, ms *)
  time_to_flowing : Stats.t;  (* per tunnel: trace start -> bothFlowing, ms *)
  violations : int;
}

let bump tbl key n =
  Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* Both scans read the flat packed capture through the [Trace.Packed]
   field accessors: no per-event record is built, so a fleet session's
   metrics pass allocates O(tunnels), not O(events). *)

(* Round-trip per tunnel: the initiator-side open send to the matching
   oack receipt — one signaling round across however many hops the
   channel's frames take. *)
let round_trips p =
  let open_at : (string * int, float) Hashtbl.t = Hashtbl.create 8 in
  let stats = Stats.create () in
  let n = Trace.Packed.length p in
  for i = 0 to n - 1 do
    let tg = Trace.Packed.tag p i in
    if tg = 0 then begin
      match Trace.Packed.sig_signal p i with
      | Mediactl_types.Signal.Open _ ->
        let key = (Trace.Packed.sig_chan p i, Trace.Packed.sig_tun p i) in
        if not (Hashtbl.mem open_at key) then Hashtbl.add open_at key (Trace.Packed.at p i)
      | _ -> ()
    end
    else if tg = 1 then
      match Trace.Packed.sig_signal p i with
      | Mediactl_types.Signal.Oack _ -> (
        let key = (Trace.Packed.sig_chan p i, Trace.Packed.sig_tun p i) in
        match Hashtbl.find_opt open_at key with
        | Some t0 ->
          Stats.add stats (Trace.Packed.at p i -. t0);
          Hashtbl.remove open_at key
        | None -> ())
      | _ -> ()
  done;
  stats

let of_packed p =
  let sends = Hashtbl.create 8 in
  let recvs = ref 0 in
  let slot_transitions = ref 0 in
  let goal_changes = ref 0 in
  let drops = ref 0 in
  let dups = ref 0 in
  let retransmissions = ref 0 in
  let retries_exhausted = ref 0 in
  let dup_suppressed = ref 0 in
  let acks = ref 0 in
  let t_min = ref infinity and t_max = ref neg_infinity in
  let n = Trace.Packed.length p in
  for i = 0 to n - 1 do
    let at = Trace.Packed.at p i in
    if at < !t_min then t_min := at;
    if at > !t_max then t_max := at;
    match Trace.Packed.tag p i with
    | 0 -> bump sends (Mediactl_types.Signal.name (Trace.Packed.sig_signal p i)) 1
    | 1 -> incr recvs
    | 4 -> incr slot_transitions
    | 5 -> incr goal_changes
    | 6 -> (
      match Trace.Packed.net_decision p i with
      | Trace.Dropped -> incr drops
      | Trace.Passed n -> if n > 1 then incr dups
      | Trace.Retransmit _ -> incr retransmissions
      | Trace.Retry_exhausted -> incr retries_exhausted
      | Trace.Dup_suppressed | Trace.Reorder_suppressed -> incr dup_suppressed
      | Trace.Ack_sent -> incr acks
      | Trace.Ack_dropped -> ())
    | _ -> ()
  done;
  let monitor = Monitor.replay_packed p in
  let time_to_flowing = Stats.create () in
  let start = if !t_min = infinity then 0.0 else !t_min in
  List.iter
    (fun (r : Monitor.tunnel_report) ->
      match r.Monitor.first_all_flowing with
      | Some t -> Stats.add time_to_flowing (t -. start)
      | None -> ())
    monitor.Monitor.tunnels;
  {
    events = n;
    duration = (if !t_max >= !t_min then !t_max -. !t_min else 0.0);
    sends_by_signal =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) sends []
      |> List.sort (fun (_, a) (_, b) -> compare b a);
    recvs = !recvs;
    slot_transitions = !slot_transitions;
    goal_changes = !goal_changes;
    open_races =
      List.fold_left (fun acc r -> acc + r.Monitor.races) 0 monitor.Monitor.tunnels;
    drops = !drops;
    dups = !dups;
    retransmissions = !retransmissions;
    retries_exhausted = !retries_exhausted;
    dup_suppressed = !dup_suppressed;
    acks = !acks;
    round_trip = round_trips p;
    time_to_flowing;
    violations = List.length monitor.Monitor.violations;
  }

(* ------------------------------------------------------------------ *)
(* Merging per-session registries                                      *)

let empty =
  {
    events = 0;
    duration = 0.0;
    sends_by_signal = [];
    recvs = 0;
    slot_transitions = 0;
    goal_changes = 0;
    open_races = 0;
    drops = 0;
    dups = 0;
    retransmissions = 0;
    retries_exhausted = 0;
    dup_suppressed = 0;
    acks = 0;
    round_trip = Stats.create ();
    time_to_flowing = Stats.create ();
    violations = 0;
  }

(* The one accumulator: flat mutable counters plus pooled samples.
   Folding [t] values pairwise would recopy every accumulated latency
   sample (and rebuild the sends assoc) per session, quadratic in fleet
   size; this adds each registry once. *)
type acc = {
  mutable a_events : int;
  mutable a_duration : float;
  a_sends : (string, int) Hashtbl.t;
  mutable a_recvs : int;
  mutable a_slots : int;
  mutable a_goals : int;
  mutable a_races : int;
  mutable a_drops : int;
  mutable a_dups : int;
  mutable a_retrans : int;
  mutable a_exhausted : int;
  mutable a_suppressed : int;
  mutable a_acks : int;
  a_rt : Stats.t;
  a_ttf : Stats.t;
  mutable a_viol : int;
}

let acc () =
  {
    a_events = 0;
    a_duration = 0.0;
    a_sends = Hashtbl.create 8;
    a_recvs = 0;
    a_slots = 0;
    a_goals = 0;
    a_races = 0;
    a_drops = 0;
    a_dups = 0;
    a_retrans = 0;
    a_exhausted = 0;
    a_suppressed = 0;
    a_acks = 0;
    a_rt = Stats.create ();
    a_ttf = Stats.create ();
    a_viol = 0;
  }

let add a m =
  a.a_events <- a.a_events + m.events;
  a.a_duration <- a.a_duration +. m.duration;
  List.iter (fun (k, v) -> bump a.a_sends k v) m.sends_by_signal;
  a.a_recvs <- a.a_recvs + m.recvs;
  a.a_slots <- a.a_slots + m.slot_transitions;
  a.a_goals <- a.a_goals + m.goal_changes;
  a.a_races <- a.a_races + m.open_races;
  a.a_drops <- a.a_drops + m.drops;
  a.a_dups <- a.a_dups + m.dups;
  a.a_retrans <- a.a_retrans + m.retransmissions;
  a.a_exhausted <- a.a_exhausted + m.retries_exhausted;
  a.a_suppressed <- a.a_suppressed + m.dup_suppressed;
  a.a_acks <- a.a_acks + m.acks;
  List.iter (Stats.add a.a_rt) (Stats.samples m.round_trip);
  List.iter (Stats.add a.a_ttf) (Stats.samples m.time_to_flowing);
  a.a_viol <- a.a_viol + m.violations

let total a =
  {
    events = a.a_events;
    duration = a.a_duration;
    sends_by_signal =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) a.a_sends []
      |> List.sort (fun (_, a) (_, b) -> compare b a);
    recvs = a.a_recvs;
    slot_transitions = a.a_slots;
    goal_changes = a.a_goals;
    open_races = a.a_races;
    drops = a.a_drops;
    dups = a.a_dups;
    retransmissions = a.a_retrans;
    retries_exhausted = a.a_exhausted;
    dup_suppressed = a.a_suppressed;
    acks = a.a_acks;
    round_trip = a.a_rt;
    time_to_flowing = a.a_ttf;
    violations = a.a_viol;
  }

let merge_all ms =
  let a = acc () in
  List.iter (add a) ms;
  total a

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let pp ppf m =
  let total_sends = List.fold_left (fun acc (_, n) -> acc + n) 0 m.sends_by_signal in
  Format.fprintf ppf
    "@[<v>events      %d over %.1f ms@,\
     signals     %d sent / %d received (%s)@,\
     slots       %d transitions, %d goal changes, %d open races@,\
     network     %d drops, %d dups, %d retransmissions (%d abandoned), %d suppressed, %d \
     acks@,\
     round-trip  %a@,\
     to-flowing  %a@,\
     violations  %d@]"
    m.events m.duration total_sends m.recvs
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) m.sends_by_signal))
    m.slot_transitions m.goal_changes m.open_races m.drops m.dups m.retransmissions
    m.retries_exhausted m.dup_suppressed m.acks Stats.pp m.round_trip Stats.pp
    m.time_to_flowing m.violations

let stats_json s =
  if Stats.count s = 0 then "null"
  else
    Printf.sprintf
      "{\"n\":%d,\"mean\":%.3f,\"stddev\":%.3f,\"min\":%.3f,\"max\":%.3f,\"p50\":%.3f,\"p95\":%.3f,\"histogram\":[%s]}"
      (Stats.count s) (Stats.mean s) (Stats.stddev s) (Stats.min s) (Stats.max s)
      (Stats.percentile s 0.5) (Stats.percentile s 0.95)
      (String.concat ","
         (List.map
            (fun (lo, hi, n) -> Printf.sprintf "{\"lo\":%.3f,\"hi\":%.3f,\"n\":%d}" lo hi n)
            (Stats.histogram ~bins:8 s)))

(* [time_to_all_flowing_ms] is the current name (the monitor grew N-way
   legs); the historical [time_to_both_flowing_ms] key is emitted as a
   duplicate so downstream JSON consumers don't break silently. *)
let to_json m =
  let flowing = stats_json m.time_to_flowing in
  Printf.sprintf
    "{\"events\":%d,\"duration_ms\":%.3f,\"sends\":{%s},\"recvs\":%d,\"slot_transitions\":%d,\"goal_changes\":%d,\"open_races\":%d,\"net\":{\"drops\":%d,\"dups\":%d,\"retransmissions\":%d,\"retries_exhausted\":%d,\"dup_suppressed\":%d,\"acks\":%d},\"round_trip_ms\":%s,\"time_to_all_flowing_ms\":%s,\"time_to_both_flowing_ms\":%s,\"violations\":%d}"
    m.events m.duration
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" k v) m.sends_by_signal))
    m.recvs m.slot_transitions m.goal_changes m.open_races m.drops m.dups m.retransmissions
    m.retries_exhausted m.dup_suppressed m.acks (stats_json m.round_trip) flowing flowing
    m.violations

let write_json path m =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_json m);
      output_char oc '\n')
