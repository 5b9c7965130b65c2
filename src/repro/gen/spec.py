"""``(family, params, seed)`` triples as first-class, catalogued circuits.

A :class:`GenSpec` is the reproducible identity of one generated
circuit.  Its canonical :meth:`~GenSpec.name` encodes the full identity
in a single parseable token::

    gen:dag:gates=24,inputs=6,outputs=3:s7
    gen:fsm:gates=18,inputs=2,moore=0,outputs=2,state=3:s41

which makes generated circuits *self-describing*: any process that sees
the name can rebuild the exact netlist with :func:`build_named` — no
shared registry state, no pickled generator closures.  That is how the
fuzzing campaign ships work to the processes of the ``workers`` backend
and how a failure line printed by ``repro fuzz`` replays anywhere.

:func:`resolve` turns a spec into a synthetic
:class:`~repro.circuits.registry.CircuitInfo` (suite ``"gen"``), and
:mod:`repro.circuits.registry` falls back to it for any ``gen:``-prefixed
name, so the whole eval/verify machinery — ``VerificationSpec``,
``SynthesisJob``, result caching — works on generated circuits exactly
as it does on the catalogue.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..circuits.registry import CATALOG, CircuitInfo
from ..netlist.network import LogicNetwork
from .families import FAMILIES, FamilyInfo, family_info

__all__ = [
    "GenSpec",
    "build_named",
    "draw_spec",
    "generate_specs",
    "is_gen_name",
    "parse_name",
    "register_spec",
    "resolve",
    "resolve_families",
]

#: Canonical name prefix of generated circuits.
GEN_PREFIX = "gen:"


def _coerce_param(value: str) -> object:
    """Parse one ``k=v`` value back into the type the family expects."""
    if value in ("True", "False"):
        return value == "True"
    try:
        return int(value)
    except ValueError:
        return value


@dataclass(frozen=True)
class GenSpec:
    """The reproducible identity of one generated circuit.

    Attributes:
        family: Key into :data:`repro.gen.families.FAMILIES`.
        params: Sorted ``(key, value)`` pairs; always the family's full
            parameter namespace so equal circuits have equal specs.
        seed: The generator seed.
    """

    family: str
    params: Tuple[Tuple[str, object], ...] = ()
    seed: int = 0

    @classmethod
    def create(cls, family: str, seed: int = 0, **params: object) -> "GenSpec":
        """Build a spec, validating parameter names against the family.

        Parameters not overridden default to the family's values, so two
        specs describing the same circuit are always equal.
        """
        info = family_info(family)
        defaults = dict(info.defaults)
        unknown = set(params) - set(defaults)
        if unknown:
            raise ValueError(
                f"family {family!r} has no parameter(s) {sorted(unknown)}; "
                f"valid: {sorted(defaults)}"
            )
        defaults.update(params)
        return cls(family=family, params=tuple(sorted(defaults.items())), seed=int(seed))

    def info(self) -> FamilyInfo:
        return family_info(self.family)

    @property
    def kind(self) -> str:
        """``"combinational"`` or ``"sequential"``."""
        return self.info().kind

    def name(self) -> str:
        """Canonical self-describing circuit name (see module docstring)."""
        rendered = ",".join(
            f"{key}={int(value) if isinstance(value, bool) else value}"
            for key, value in self.params
        )
        return f"{GEN_PREFIX}{self.family}:{rendered}:s{self.seed}"

    def build(self) -> LogicNetwork:
        """Instantiate the circuit (named after the spec)."""
        network = self.info().fn(seed=self.seed, **dict(self.params))
        network.name = self.name()
        return network

    def to_dict(self) -> Dict[str, object]:
        return {"family": self.family, "params": dict(self.params), "seed": self.seed}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "GenSpec":
        return cls.create(
            str(data["family"]),
            seed=int(data.get("seed", 0)),
            **dict(data.get("params") or {}),
        )


def is_gen_name(name: str) -> bool:
    """True when ``name`` uses the generated-circuit grammar."""
    return name.startswith(GEN_PREFIX)


def parse_name(name: str) -> GenSpec:
    """Parse a canonical ``gen:family:k=v,...:s<seed>`` name back to a spec."""
    if not is_gen_name(name):
        raise ValueError(f"{name!r} is not a generated-circuit name ({GEN_PREFIX}...)")
    parts = name.split(":")
    if len(parts) != 4 or not parts[3].startswith("s"):
        raise ValueError(
            f"malformed generated-circuit name {name!r}; "
            "expected gen:<family>:<k=v,...>:s<seed>"
        )
    _, family, rendered, seed_token = parts
    params: Dict[str, object] = {}
    for pair in filter(None, rendered.split(",")):
        key, _, value = pair.partition("=")
        if not key or not value:
            raise ValueError(f"malformed parameter {pair!r} in {name!r}")
        params[key] = _coerce_param(value)
    try:
        seed = int(seed_token[1:])
    except ValueError:
        raise ValueError(f"malformed seed token {seed_token!r} in {name!r}") from None
    info = family_info(family)
    # Boolean parameters are rendered as 0/1 integers; coerce them back.
    defaults = dict(info.defaults)
    for key, value in list(params.items()):
        if isinstance(defaults.get(key), bool):
            params[key] = bool(value)
    return GenSpec.create(family, seed=seed, **params)


def build_named(name: str) -> LogicNetwork:
    """Build a generated circuit from its canonical name alone."""
    return parse_name(name).build()


def _generator_shim(name: str = "") -> LogicNetwork:
    """Registry-compatible generator: the spec identity rides in ``name``."""
    return build_named(name)


def resolve(name_or_spec) -> CircuitInfo:
    """Synthetic :class:`CircuitInfo` for a generated circuit.

    Accepts a :class:`GenSpec` or a canonical name.  The returned entry
    behaves exactly like a hand-registered catalogue row — ``build``
    works at either scale (generated circuits have a single scale) — and
    its generator is a plain module-level function, so the entry stays
    picklable across worker processes.
    """
    spec = name_or_spec if isinstance(name_or_spec, GenSpec) else parse_name(name_or_spec)
    name = spec.name()
    info = spec.info()
    return CircuitInfo(
        name=name,
        suite="gen",
        kind=info.kind,
        generator=_generator_shim,
        paper_params={"name": name},
        quick_params={"name": name},
        description=f"generated: {info.description} (seed {spec.seed})",
    )


def register_spec(spec: GenSpec) -> CircuitInfo:
    """Insert a generated circuit into the live catalogue (idempotent).

    Registration is only needed to make the circuit show up in listings
    (``repro list --circuits``); building and verifying generated
    circuits works without it via the registry's ``gen:`` fallback.
    """
    entry = CATALOG.get(spec.name())
    if entry is None:
        entry = resolve(spec)
        CATALOG[entry.name] = entry
    return entry


def draw_spec(master: random.Random, info: FamilyInfo) -> GenSpec:
    """Draw one uniform spec of ``info`` from the master stream.

    This is the single sampling primitive behind both
    :func:`generate_specs` and the coverage-steered stream of
    :func:`repro.cov.steer.steered_specs`: parameters come from the
    family's ``fuzz_ranges`` and the per-circuit seed from the same
    stream, so any consumer advancing ``master`` identically produces
    identical specs.
    """
    params: Dict[str, object] = {}
    for key, (lo, hi) in info.fuzz_ranges:
        value: object = master.randint(lo, hi)
        if isinstance(dict(info.defaults)[key], bool):
            value = bool(value)
        params[key] = value
    return GenSpec.create(info.name, seed=master.getrandbits(32), **params)


def resolve_families(families: Optional[Sequence[str]] = None) -> List[str]:
    """The family cycle a campaign iterates, validated early."""
    selected = list(families) if families else sorted(FAMILIES)
    for family in selected:
        family_info(family)  # raise early on unknown names
    return selected


def generate_specs(
    budget: int,
    seed: int = 0,
    families: Optional[Sequence[str]] = None,
) -> List[GenSpec]:
    """Deterministically derive ``budget`` specs from one master seed.

    Families are cycled round-robin; each circuit's parameters are drawn
    from the family's ``fuzz_ranges`` and its per-circuit seed from the
    master stream, so the whole campaign is a pure function of
    ``(budget, seed, families)``.
    """
    selected = resolve_families(families)
    master = random.Random(seed)
    return [
        draw_spec(master, family_info(selected[index % len(selected)]))
        for index in range(max(0, int(budget)))
    ]
