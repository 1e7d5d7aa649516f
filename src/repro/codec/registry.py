"""Codec dispatch by container magic and by file extension (paper S6).

    "The preprocessing engine ... uses decoders such as libvpx and
    openh264 for decoding based on file extensions."

Two formats ship: inter-coded ``SVC1`` (``.svc``) and all-intra ``SVI1``
(``.svi``).  :func:`open_decoder` sniffs the leading magic — the robust
path the materializer uses; :func:`decoder_for_path` maps extensions the
way the paper describes the engine selecting decoders.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro.codec.container import MAGIC as SVC_MAGIC
from repro.codec.incremental import AnchorCache, IncrementalDecoder
from repro.codec.intra import MAGIC as SVI_MAGIC, IntraDecoder

VideoDecoder = Union[IncrementalDecoder, IntraDecoder]


def _open_svc(
    data: bytes,
    anchor_cache: Optional[AnchorCache] = None,
    reuse_threshold: float = 0.0,
) -> IncrementalDecoder:
    cache = anchor_cache if anchor_cache is not None else AnchorCache(0)
    return IncrementalDecoder(data, cache=cache, reuse_threshold=reuse_threshold)


def _open_svi(
    data: bytes,
    anchor_cache: Optional[AnchorCache] = None,
    reuse_threshold: float = 0.0,
) -> IntraDecoder:
    del anchor_cache, reuse_threshold  # no inter-frame state, no delta track
    return IntraDecoder(data)


_BY_MAGIC: Dict[bytes, Callable[..., VideoDecoder]] = {
    SVC_MAGIC: _open_svc,
    SVI_MAGIC: _open_svi,
}

_BY_EXTENSION: Dict[str, Callable[..., VideoDecoder]] = {
    ".svc": _open_svc,
    ".svi": _open_svi,
}


class UnknownCodecError(ValueError):
    """No registered codec matches the data or extension."""


def open_decoder(
    data: bytes,
    anchor_cache: Optional[AnchorCache] = None,
    reuse_threshold: float = 0.0,
) -> VideoDecoder:
    """Instantiate the right decoder for container bytes (magic sniff).

    Inter-coded formats get the :class:`IncrementalDecoder` over
    ``anchor_cache`` — or, without one, over a zero-budget cache, which
    leaves it stateless between calls like the paper's on-demand
    baselines; all-intra formats have no inter-frame dependencies to
    reuse and keep their decoder.
    ``reuse_threshold`` enables near-duplicate frame collapse for
    inter-coded formats (ignored for all-intra: SVI1 containers carry no
    delta track).
    """
    magic = data[:4]
    factory = _BY_MAGIC.get(magic)
    if factory is None:
        raise UnknownCodecError(
            f"unknown container magic {magic!r}; known: {sorted(_BY_MAGIC)}"
        )
    return factory(data, anchor_cache, reuse_threshold)


def decoder_for_path(path: Union[str, Path], data: bytes) -> VideoDecoder:
    """Select a decoder by file extension (the S6 dispatch rule)."""
    suffix = Path(path).suffix.lower()
    factory = _BY_EXTENSION.get(suffix)
    if factory is None:
        raise UnknownCodecError(
            f"no codec registered for {suffix!r}; known: {sorted(_BY_EXTENSION)}"
        )
    return factory(data)
