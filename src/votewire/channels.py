"""Transmission channels: signed or not.

A channel is abstracted to one security-relevant fact: whether reports on
it are signed. An unsigned channel lets anyone on the edge change report
contents (tamper) or inject reports in the sender's name (front-run); a
signed one rules both out. No channel, signed or not, stops anyone from
holding a message back, so delay is possible everywhere. The presets model
the mechanisms in real use between cantonal and federal offices; none of
the electronic ones is signed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ChannelSpec:
    name: str
    signed: bool
    base_latency: int

    def __post_init__(self) -> None:
        if self.base_latency < 0:
            raise ValueError("base_latency must be >= 0 ticks")


TELEPHONE = ChannelSpec("telephone", False, base_latency=3)
FAX = ChannelSpec("fax", False, base_latency=2)
EMAIL = ChannelSpec("email", False, base_latency=1)
# Dedicated reporting software is not assumed secure: the deployed tools
# have not passed a public review, so the conservative default applies.
DEDICATED_SOFTWARE = ChannelSpec("dedicated", False, base_latency=1)
# The paper trail: hand-signed documents by post. Unforgeable and
# unmodifiable for this model's purposes, but days slower and still delayable.
POSTAL_FINAL = ChannelSpec("postal_final", True, base_latency=48)

PRESETS: dict[str, ChannelSpec] = {
    spec.name: spec
    for spec in (TELEPHONE, FAX, EMAIL, DEDICATED_SOFTWARE, POSTAL_FINAL)
}


def preset(name: str, base_latency: int | None = None) -> ChannelSpec:
    try:
        spec = PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown channel preset {name!r}; known: {sorted(PRESETS)}") from None
    if base_latency is not None:
        spec = replace(spec, base_latency=base_latency)
    return spec


def wrapped(spec: ChannelSpec) -> ChannelSpec:
    """The same channel carrying signed reports.

    Signing rules out tampering and forgery on any transport. It cannot
    stop anyone from sitting on a message, so delay stays possible.
    """
    if spec.signed:
        return spec
    return replace(spec, name=f"{spec.name}+signed", signed=True)
