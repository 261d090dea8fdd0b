(** First-class server designs and the design registry.

    Every server policy the repo implements (Minos, the keyhash baseline,
    keyhash + work stealing, the static handoff design) is exposed as one
    value of type {!t}: a first-class module carrying the display name,
    CLI aliases, a one-line summary, the set of {!Config.t} knobs the
    design reads, and the [make] entry point {!Engine.run} consumes.

    Callers select designs exclusively through this interface — by value
    ({!minos}, {!hkh}, …), by name ({!find}) or by enumeration ({!all});
    nothing outside this module pattern-matches on which design is which.
    Extensions can {!register} additional designs and they become
    reachable from the CLI, sweeps and the cluster layer for free. *)

type knob =
  | Handoff_cores      (** [Config.handoff_cores] *)
  | Static_threshold   (** [Config.static_threshold] *)
  | Large_rx_steal     (** [Config.large_rx_steal] *)
  | Watchdog           (** [Config.watchdog] *)
  | Erew_dispatch      (** [Config.hkh_erew] *)

(** The signature a server design implements. *)
module type S = sig
  val name : string
  (** Display name, unique across the registry (e.g. ["Minos"]). *)

  val aliases : string list
  (** Extra lowercase spellings {!find} accepts, e.g. ["hkh_ws"; "ws"]. *)

  val summary : string
  (** One-line description for [--help] and reports. *)

  val knobs : knob list
  (** Which {!Config.t} knobs this design reads. *)

  val make : Engine.t -> Engine.design
  (** Build the scheduling policy for one engine run. *)
end

type t = (module S)

val name : t -> string
val summary : t -> string
val knobs : t -> knob list

val supports : t -> knob -> bool
(** Whether the design reads the given knob (e.g. SHO supports
    [Handoff_cores], so sweeps may search over handoff core counts). *)

val make : t -> Engine.t -> Engine.design

val equal : t -> t -> bool
(** Designs compare by {!name} (first-class modules have no meaningful
    structural equality). *)

val minos : t
(** The paper's size-aware design: adaptive threshold + core partition. *)

val hkh : t
(** Hardware keyhash baseline (CREW; EREW under [Erew_dispatch]). *)

val hkh_ws : t
(** Keyhash dispatch with idle-core work stealing. *)

val sho : t
(** Static handoff: dedicated handoff cores forward by size class. *)

val register : t -> unit
(** Add a design to the registry.  Raises [Invalid_argument] when a design
    with the same {!name} (or a clashing alias) is already registered. *)

val all : unit -> t list
(** Registered designs, in registration order (builtins first:
    [minos; hkh; hkh_ws; sho]). *)

val find : string -> t option
(** Case-insensitive lookup by name or alias. *)
