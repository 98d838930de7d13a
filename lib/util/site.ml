exception Injected of string

exception Injected_crash of string

(* [Injected_crash] deliberately escapes the structured-error
   discipline: every layer that converts exceptions into [Query_error]
   must let it pass, so it reaches (and kills) the hosting domain —
   that is the whole point of the [Crash] action. [Fun.protect]
   finalisers along the unwind may re-wrap it; [is_crash] sees through
   the wrapping. *)
let rec is_crash = function
  | Injected_crash _ -> true
  | Fun.Finally_raised e -> is_crash e
  | _ -> false

let () =
  Printexc.register_printer (function
    | Injected_crash site -> Some ("injected domain crash at " ^ site)
    | _ -> None)

type role = Fault | Yield | Both

(* Every site compiled into the engine, with the roles it plays. The
   armable ones come first, in the order chaos sweeps cycle through
   them. [aeq_lint] cross-checks the literal [hit] calls in lib/
   against this list in both directions. *)
let catalog =
  [
    ("compile.unopt", Fault);
    ("compile.opt", Fault);
    ("compile.singleflight", Both);
    ("driver.morsel", Both);
    ("arena.alloc", Both);
    ("arena.lease", Both);
    ("arena.release", Both);
    ("pool.pick", Both);
    ("sched.dispatch", Both);
    ("net.accept", Fault);
    ("net.read", Fault);
    ("net.write", Fault);
    ("arena.backpressure", Yield);
    ("driver.ctx_install", Yield);
    ("engine.cache", Yield);
    ("engine.singleflight.wait", Yield);
    ("supervisor.crash", Yield);
    ("supervisor.backoff", Yield);
    ("supervisor.restart", Yield);
  ]

(* A name outside the catalog — a test's own probe — plays both roles:
   it yields under simulation, and faults if armed, which
   [register_site] must allow first. *)
let role site = Option.value (List.assoc_opt site catalog) ~default:Both

(* One word gates both halves: twice the number of armed sites, plus
   one while a simulation handler is installed. Zero is the production
   state, where [hit] is this load and an untaken branch. *)
let live = Atomic.make 0

let armed () = Atomic.get live >= 2

let simulating () = Atomic.get live land 1 = 1

(* ---- fault half ------------------------------------------------------ *)

type action = Fail | Delay of float | Prob_fail of float | Crash

type entry = {
  action : action;
  on_hit : int;
  persistent : bool;
  hits : int Atomic.t;
  fired : int Atomic.t;
}

(* Registry mutations take the lock; [hit] reads it only after [live]
   says at least one site is armed. *)
let () =
  Aeq_race.declare "util.site.registry" (Aeq_race.Lock "util.site.lock")

let lock = Aeq_race.Lock.create "util.site.lock"

let registry_loc = Aeq_race.locate "util.site.registry"

let table : (string, entry) Hashtbl.t = Hashtbl.create 8

(* One PRNG for every probabilistic site, drawn under the registry
   lock: chaos runs are reproducible given the seed and a fixed
   interleaving, and at worst statistically stable across
   interleavings. *)
let prng = ref (Prng.create 0x5EEDFA117L)

let locked f = Aeq_race.Lock.with_ lock f

(* test-registered fault sites, newest first *)
let extra_sites : string list ref = ref []

let valid_sites () =
  List.filter_map (fun (s, r) -> if r = Yield then None else Some s) catalog
  @ locked (fun () ->
        Aeq_race.read ~site:"site.valid_sites" registry_loc;
        List.rev !extra_sites)

let check_site site =
  let armable =
    match List.assoc_opt site catalog with
    | Some r -> r <> Yield
    | None ->
      locked (fun () ->
          Aeq_race.read ~site:"site.check_site" registry_loc;
          List.mem site !extra_sites)
  in
  if not armable then
    invalid_arg
      (Printf.sprintf "Site: %S is not a fault site (valid sites: %s)" site
         (String.concat ", " (List.sort compare (valid_sites ()))))

let register_site site =
  locked (fun () ->
      Aeq_race.write ~site:"site.register_site" registry_loc;
      if not (List.mem site !extra_sites) then extra_sites := site :: !extra_sites)

let set_seed seed =
  locked (fun () ->
      Aeq_race.write ~site:"site.set_seed" registry_loc;
      prng := Prng.create seed)

let activate ?(on_hit = 1) ?(persistent = true) site action =
  check_site site;
  if on_hit < 1 then invalid_arg "Site.activate: on_hit must be >= 1";
  (match action with
  | Prob_fail p when not (p >= 0.0 && p <= 1.0) ->
    invalid_arg "Site.activate: probability must be in [0,1]"
  | _ -> ());
  locked (fun () ->
      Aeq_race.write ~site:"site.activate" registry_loc;
      if not (Hashtbl.mem table site) then ignore (Atomic.fetch_and_add live 2);
      Hashtbl.replace table site
        {
          action;
          on_hit;
          persistent;
          hits = Atomic.make 0;
          fired = Atomic.make 0;
        })

let deactivate site =
  locked (fun () ->
      Aeq_race.write ~site:"site.deactivate" registry_loc;
      if Hashtbl.mem table site then begin
        Hashtbl.remove table site;
        ignore (Atomic.fetch_and_add live (-2))
      end)

let clear () =
  locked (fun () ->
      Aeq_race.write ~site:"site.clear" registry_loc;
      ignore (Atomic.fetch_and_add live (-2 * Hashtbl.length table));
      Hashtbl.reset table)

let find site =
  locked (fun () ->
      Aeq_race.read ~site:"site.find" registry_loc;
      Hashtbl.find_opt table site)

let hits site = match find site with Some e -> Atomic.get e.hits | None -> 0

let fired site = match find site with Some e -> Atomic.get e.fired | None -> 0

let fault site =
  match find site with
  | None -> ()
  | Some e ->
    let n = 1 + Atomic.fetch_and_add e.hits 1 in
    let fire = if e.persistent then n >= e.on_hit else n = e.on_hit in
    if fire then begin
      match e.action with
      | Fail ->
        Atomic.incr e.fired;
        raise (Injected site)
      | Delay s ->
        Atomic.incr e.fired;
        Unix.sleepf s
      | Prob_fail p ->
        (* draw under the lock; the coin decides whether this hit
           counts as fired at all *)
        let draw =
          locked (fun () ->
              Aeq_race.write ~site:"site.draw" registry_loc;
              Prng.float !prng 1.0)
        in
        if draw < p then begin
          Atomic.incr e.fired;
          raise (Injected site)
        end
      | Crash ->
        Atomic.incr e.fired;
        raise (Injected_crash site)
    end

(* ---- yield half ------------------------------------------------------ *)

(* An atomic in its own right, not published through [live]: a
   disable/enable cycle racing a concurrent [hit] must still read a
   whole handler. *)
let () = Aeq_race.declare "util.site.handler" Aeq_race.Atomic

let handler : (string -> unit) Atomic.t = Atomic.make ignore

let install f =
  if simulating () then
    invalid_arg "Site.install: a simulation handler is already installed";
  Atomic.set handler f;
  Atomic.incr live

let uninstall () =
  if simulating () then Atomic.decr live;
  Atomic.set handler ignore

let with_handler f body =
  install f;
  Fun.protect ~finally:uninstall body

(* ---- the probe ------------------------------------------------------- *)

let probe site =
  let v = Atomic.get live in
  let r = role site in
  if v >= 2 && r <> Yield then fault site;
  if v land 1 = 1 && r <> Fault then (Atomic.get handler) site

let[@inline] hit site = if Atomic.get live <> 0 then probe site

(* "site=fail", "site=fail@3", "site=crash", "site=delay:0.01",
   "site=delay:0.01@2", "site=p:0.25", joined by ',' or ';'. "@N"
   makes the site one-shot on its Nth hit; without it the site fires
   on every hit. *)
let set_from_string spec =
  let arm part =
    let bad () = invalid_arg ("Site: cannot parse \"" ^ part ^ "\"") in
    let float_in lo hi s =
      match float_of_string_opt s with Some f when f >= lo && f <= hi -> f | _ -> bad ()
    in
    let site, rhs =
      match String.split_on_char '=' part with [ s; r ] -> (s, r) | _ -> bad ()
    in
    let act, on_hit =
      match String.split_on_char '@' rhs with
      | [ a ] -> (a, None)
      | [ a; n ] -> (
        match int_of_string_opt n with Some n when n >= 1 -> (a, Some n) | _ -> bad ())
      | _ -> bad ()
    in
    let action =
      match String.index_opt act ':' with
      | None when act = "fail" -> Fail
      | None when act = "crash" -> Crash
      | None -> bad ()
      | Some i -> (
        let arg = String.sub act (i + 1) (String.length act - i - 1) in
        match String.sub act 0 i with
        | "delay" -> Delay (float_in 0.0 infinity arg)
        | "p" -> Prob_fail (float_in 0.0 1.0 arg)
        | _ -> bad ())
    in
    match on_hit with
    | None -> activate site action
    | Some n -> activate ~on_hit:n ~persistent:false site action
  in
  String.split_on_char ',' (String.map (fun c -> if c = ';' then ',' else c) spec)
  |> List.iter (fun part ->
         let part = String.trim part in
         if part <> "" then arm part)

let env_var = "AEQ_FAILPOINTS"

let () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> ()
  | Some spec -> (
    try set_from_string spec
    with Invalid_argument m -> Printf.eprintf "warning: %s ignored: %s\n%!" env_var m)
