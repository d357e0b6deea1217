"""Docvalues / docstore reader: typed per-document field columns keyed by
docid, powering filtered BM25 and document retrieval.

This is the query half of the reference's typed field mappings — every
non-text column of a managed table is queryable by exact term / range
(/root/reference/src/search-ingest/schemas.cr:211-222; the reference
delegates the storage to Elasticsearch doc_values, here it is a per-chunk
Parquet sidecar written by ``build_index(store_fields=...)``).

Scale shape: the sidecar is DOCID-RANGE SHARDED at build time
(``fields/chunk=N/fshard=S/``, S = docid // width with width ≈ 2^63 /
field_shards; ``fields/meta.json`` records the shard count).  A FieldStore
loads shards LAZILY — only those its candidate docids actually touch — and
keeps at most ``max_loaded`` shards resident (LRU), so a query actor's
docvalues footprint is bounded by (touched shards × shard size), not the
whole index: at 10^9+ docs with several stored fields, loading everything
per actor was the first OOM.  Within a shard, lookups are
``np.searchsorted`` over docid-sorted parallel arrays — O(log n) per
candidate, vectorized over the shard's candidate slice.  Filters are
evaluated ONLY on candidate docids produced by the term index — never as a
full scan.  Legacy unsharded sidecars (no ``meta.json`` / no ``fshard=``
path component) degrade to a single always-loaded shard.

Retrieval (:meth:`FieldStore.get`) returns every column in its stored
Arrow type, with real nulls for missing values and absent docids.  The
filters (:meth:`FieldStore.mask` / :meth:`FieldStore.scan`) run on numpy
views of the shard columns instead, where a nulled int column is float64
with NaN for null; that encoding never leaves this module.
"""

from __future__ import annotations

import json
import os
import re
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

_FSHARD_RE = re.compile(r"fshard=(\d+)")


class _NumpyColumns(dict):
    """numpy views of a shard's columns for the filters, each made on
    first use: None for a missing string, NaN for a missing int or float
    (a nulled int column becomes float64), NaT for a missing
    timestamp."""

    def __init__(self, arrays: dict[str, pa.Array]):
        super().__init__()
        self._arrays = arrays

    def __missing__(self, name: str) -> np.ndarray:
        got = self[name] = self._arrays[name].to_numpy(zero_copy_only=False)
        return got


class _Shard:
    __slots__ = ("docids", "arrays", "columns")

    def __init__(self, docids: np.ndarray, arrays: dict[str, pa.Array]):
        self.docids = docids
        self.arrays = arrays     # docid-sorted, stored types, real nulls
        self.columns = _NumpyColumns(arrays)


_EMPTY_SHARD = _Shard(np.empty(0, dtype=np.int64), {})


def scatter(n: int, parts: list[tuple[np.ndarray, dict[str, pa.Array]]],
            types: dict[str, pa.DataType]) -> dict[str, pa.Array]:
    """Length-``n`` columns of the given ``types``: each part
    ``(positions, {column: values})`` lands at its positions, and every
    other position is null.  One ``take`` per column."""
    at = np.full(n, -1, dtype=np.int64)
    start = 0
    for pos, _ in parts:
        at[pos] = np.arange(start, start + pos.size)
        start += pos.size
    idx = pa.array(at, pa.int64(), mask=at < 0)
    return {c: pa.concat_arrays([pa.array([], t)]
                                + [got[c].cast(t) for _, got in parts]
                                ).take(idx)
            for c, t in types.items()}


class FieldStore:
    def __init__(self, epoch_dir: str, max_loaded: int | None = None):
        fdir = os.path.join(epoch_dir, "fields")
        files = sorted(
            os.path.join(r, f) for r, _, fs in os.walk(fdir)
            for f in fs if f.endswith(".parquet")) if os.path.isdir(fdir) else []
        meta_path = os.path.join(fdir, "meta.json")
        nshards = None
        if os.path.isfile(meta_path):
            try:
                nshards = int(json.load(open(meta_path)).get("field_shards"))
            except (ValueError, TypeError, OSError):
                nshards = None
        # shard id per file from the hive path; any file without the
        # component forces legacy single-shard mode (mapping unknowable)
        by_shard: dict[int, list[str]] = {}
        legacy = nshards is None
        for f in files:
            m = _FSHARD_RE.search(f)
            if m is None:
                legacy = True
                break
            by_shard.setdefault(int(m.group(1)), []).append(f)
        if legacy:
            by_shard = {0: files} if files else {}
            nshards = 1
        self.nshards = nshards
        self._width = -(-(1 << 63) // max(1, nshards))
        self._shard_files = by_shard
        self._loaded: OrderedDict[int, _Shard] = OrderedDict()
        self.max_loaded = max_loaded
        self.shard_loads: list[int] = []   # instrumentation: load order
        # schema without loading any data: one parquet footer
        self._field_names: list[str] = []
        if files:
            names = pq.read_schema(files[0]).names
            self._field_names = sorted(n for n in names
                                       if n not in ("docid", "fshard"))
        self._has_files = bool(files)
        self._types: dict[str, pa.DataType] | None = None

    @property
    def field_names(self) -> list[str]:
        return self._field_names

    @property
    def field_types(self) -> dict[str, pa.DataType]:
        """Stored Arrow type per field, unified over every sidecar
        footer on first use (a chunk whose column is all null may have
        written it as ``null``, and chunks of differing input files may
        differ in width, e.g. int32 and int64)."""
        if self._types is None:
            schema = pa.unify_schemas(
                [pq.read_schema(f) for fs in self._shard_files.values()
                 for f in fs] or [pa.schema([])],
                promote_options="permissive")
            self._types = {n: schema.field(n).type for n in schema.names
                           if n not in ("docid", "fshard")}
        return self._types

    # -- shard management ----------------------------------------------------

    def _shard_of(self, docids: np.ndarray) -> np.ndarray:
        return np.abs(docids) // self._width

    def _get_shard(self, sh: int) -> _Shard:
        got = self._loaded.get(sh)
        if got is not None:
            self._loaded.move_to_end(sh)
            return got
        flist = self._shard_files.get(sh)
        if not flist:
            return _EMPTY_SHARD
        tbl = pa.concat_tables([pq.read_table(f) for f in flist],
                               promote_options="permissive").combine_chunks()
        d = tbl["docid"].to_numpy()
        order = np.argsort(d, kind="stable")
        # duplicate source ids (same url twice) are degenerate input: keep
        # the last occurrence.  NOTE the posting fold resolves duplicates
        # per (term, docid) by max tf (build.py), so stored fields and
        # indexed text may come from different duplicate rows — dedupe
        # upstream (exact_dedup / fold) when attribution matters.
        ds = d[order]
        keep = np.concatenate([ds[1:] != ds[:-1], [True]]) if ds.size else \
            np.empty(0, dtype=bool)
        sel = pa.array(order[keep] if ds.size else order, pa.int64())
        shard = _Shard(ds[keep] if ds.size else ds,
                       {name: tbl[name].combine_chunks().take(sel)
                        for name in tbl.column_names
                        if name not in ("docid", "fshard")})
        self._loaded[sh] = shard
        self.shard_loads.append(sh)
        if self.max_loaded is not None:
            while len(self._loaded) > self.max_loaded:
                self._loaded.popitem(last=False)
        return shard

    @property
    def shards_loaded(self) -> int:
        """Distinct shards ever loaded (for tests / metrics)."""
        return len(set(self.shard_loads))

    # -- lookups -------------------------------------------------------------

    @staticmethod
    def _locate_in(shard: _Shard, docids: np.ndarray):
        idx = np.searchsorted(shard.docids, docids)
        idx = np.minimum(idx, max(0, len(shard.docids) - 1))
        found = (shard.docids[idx] == docids) if len(shard.docids) else \
            np.zeros(len(docids), dtype=bool)
        return idx, found

    @staticmethod
    def _spec_mask(vals: np.ndarray, spec) -> np.ndarray:
        if isinstance(spec, tuple) and len(spec) == 2 and spec[0] == "cidr":
            # typed `ip` semantics (the reference maps ip columns to the ES
            # `ip` type, schemas.cr:211-222): value ∈ IPv4 CIDR block.
            # Parsing is per-value Python — fine on the candidate path
            # (mask() sees only term-index candidates); a scan()-heavy ip
            # workload would cache parsed uint32s per shard.
            import socket
            import struct
            net, _, bits_s = spec[1].partition("/")
            bits = int(bits_s) if bits_s else 32
            mask = (0xFFFFFFFF << (32 - bits)) & 0xFFFFFFFF if bits else 0
            want = struct.unpack("!I", socket.inet_aton(net))[0] & mask

            def in_block(v) -> bool:
                try:
                    return (struct.unpack("!I", socket.inet_aton(v))[0]
                            & mask) == want
                except (OSError, TypeError):
                    return False   # non-IPv4 / null never matches
            return np.fromiter((in_block(v) for v in vals.tolist()),
                               dtype=bool, count=len(vals))
        if isinstance(spec, tuple) and len(spec) == 1 and spec[0] == "exists":
            # ES `exists` query: the doc has a non-null value for the
            # field.  Missing is None in object columns and NaN in float64
            # columns (see _NumpyColumns).
            if vals.dtype == object:
                return np.fromiter((v is not None for v in vals.tolist()),
                                   dtype=bool, count=len(vals))
            if vals.dtype.kind == "f":
                return ~np.isnan(vals)
            return np.ones(len(vals), dtype=bool)
        if isinstance(spec, tuple) and len(spec) and spec[0] == "in":
            m = np.isin(vals, np.asarray(list(spec[1]), dtype=vals.dtype)
                        if vals.dtype != object else list(spec[1]))
        elif isinstance(spec, tuple) and len(spec) == 3 and spec[0] == "range":
            _, lo, hi = spec
            m = np.ones(len(vals), dtype=bool)
            if lo is not None:
                m &= vals >= lo
            if hi is not None:
                m &= vals <= hi
        else:
            m = vals == spec
        return np.asarray(m, dtype=bool)

    # exact double constants so the DuckDB oracle can reproduce the same
    # IEEE op sequence (see __ray_entry__ geo oracles)
    _R_EARTH_M = 6371000.0
    _RAD = 0.017453292519943295  # math.pi / 180

    @classmethod
    def _geo_mask(cls, lat, lon, spec) -> np.ndarray:
        """Typed `geo_point` semantics (the reference maps geo columns to
        the ES geo types, schemas.cr:211-222): a logical geo field `f` is
        stored as the physical docvalue pair (`f_lat`, `f_lon`).

        - ``("geo_bbox", top, left, bottom, right)`` — ES geo_bounding_box
          (no dateline wrap: left ≤ right assumed).
        - ``("geo_distance", lat0, lon0, meters)`` — haversine arc distance
          on a 6,371,000 m sphere ≤ meters.  The op order matches the SQL
          oracle exactly; trig ulp skew is immaterial away from the radius
          boundary (synthetic fixtures keep metres of margin).
        - ``("geo_polygon", [(lat, lon), ...])`` — ES geo_polygon: planar
          even-odd ray casting (PNPOLY crossing test, edges in vertex
          order with implicit closure).  Supports non-convex rings; no
          dateline wrap.  The per-edge expression mirrors the SQL oracle
          op-for-op, so points with margin from every edge are bit-exact.
        Null coordinates (NaN) never match."""
        lat = np.asarray(lat, dtype=np.float64)
        lon = np.asarray(lon, dtype=np.float64)
        valid = ~(np.isnan(lat) | np.isnan(lon))
        if spec[0] == "geo_bbox":
            _, top, left, bottom, right = spec
            m = (lat >= bottom) & (lat <= top) & (lon >= left) & (lon <= right)
            return np.asarray(m & valid, dtype=bool)
        if spec[0] == "geo_polygon":
            verts = list(spec[1])
            inside = np.zeros(lat.shape, dtype=bool)
            with np.errstate(divide="ignore", invalid="ignore"):
                for k in range(len(verts)):
                    (yi, xi) = verts[k]
                    (yj, xj) = verts[k - 1]      # previous vertex closes ring
                    # horizontal edges: the straddle test is False, and the
                    # eager inf/nan from the division never compares True
                    crosses = ((lat > yi) != (lat > yj)) & (
                        lon < (xj - xi) * (lat - yi) / (yj - yi) + xi)
                    inside ^= crosses
            return np.asarray(inside & valid, dtype=bool)
        _, lat0, lon0, meters = spec
        sdlat = np.sin((lat - lat0) * cls._RAD / 2.0)
        sdlon = np.sin((lon - lon0) * cls._RAD / 2.0)
        cc = np.cos(lat0 * cls._RAD) * np.cos(lat * cls._RAD)
        h = sdlat * sdlat + cc * sdlon * sdlon
        dist = 2.0 * cls._R_EARTH_M * np.arcsin(np.sqrt(np.minimum(h, 1.0)))
        return np.asarray((dist <= meters) & valid, dtype=bool)

    @staticmethod
    def _geo_shape_mask(lat_min, lat_max, lon_min, lon_max,
                        spec) -> np.ndarray:
        """Typed ``geo_shape`` semantics for ENVELOPE shapes (the ES
        ``envelope`` shape type; the reference maps geo_shape columns at
        schemas.cr:211-222).  A logical shape field `f` is stored as the
        physical envelope quad (`f_lat_min`, `f_lat_max`, `f_lon_min`,
        `f_lon_max`); general polygon shapes would be indexed by their
        envelope too (documented approximation — exact for envelopes,
        recall-complete for polygons).  Spec:
        ``("geo_shape_<relation>", top, left, bottom, right)`` with the ES
        relations intersects / within / contains / disjoint against the
        probe rectangle.  Null envelopes never match (even disjoint)."""
        rel = spec[0].removeprefix("geo_shape_")
        _, top, left, bottom, right = spec
        a = np.asarray(lat_min, dtype=np.float64)
        b = np.asarray(lat_max, dtype=np.float64)
        c = np.asarray(lon_min, dtype=np.float64)
        d = np.asarray(lon_max, dtype=np.float64)
        valid = ~(np.isnan(a) | np.isnan(b) | np.isnan(c) | np.isnan(d))
        inter = (a <= top) & (b >= bottom) & (c <= right) & (d >= left)
        if rel == "intersects":
            m = inter
        elif rel == "disjoint":
            m = ~inter
        elif rel == "within":       # envelope within the probe rect
            m = (a >= bottom) & (b <= top) & (c >= left) & (d <= right)
        elif rel == "contains":     # envelope contains the probe rect
            m = (a <= bottom) & (b >= top) & (c <= left) & (d >= right)
        else:
            raise ValueError(f"unknown geo_shape relation {rel!r}")
        return np.asarray(m & valid, dtype=bool)

    _GEO_SHAPE_SPECS = ("geo_shape_intersects", "geo_shape_within",
                        "geo_shape_contains", "geo_shape_disjoint")

    def _eval_filter(self, columns: dict, col: str, spec,
                     idx=None) -> np.ndarray:
        """Apply one filter spec; geo point specs read the (col_lat,
        col_lon) physical pair, geo shape specs the envelope quad,
        everything else a single column."""
        def cvals(name):
            v = columns[name]
            return v if idx is None else v[idx]
        if (isinstance(spec, tuple) and spec
                and spec[0] in ("geo_distance", "geo_bbox", "geo_polygon")):
            return self._geo_mask(cvals(f"{col}_lat"), cvals(f"{col}_lon"),
                                  spec)
        if (isinstance(spec, tuple) and spec
                and spec[0] in self._GEO_SHAPE_SPECS):
            return self._geo_shape_mask(
                cvals(f"{col}_lat_min"), cvals(f"{col}_lat_max"),
                cvals(f"{col}_lon_min"), cvals(f"{col}_lon_max"), spec)
        return self._spec_mask(cvals(col), spec)

    def mask(self, docids: np.ndarray, filters: dict) -> np.ndarray:
        """Vectorized predicate over candidate docids.

        ``filters``: {col: spec} where spec is
        - a scalar            → exact term match,
        - ``("in", [v, ...])``→ membership,
        - ``("range", lo, hi)``→ lo ≤ value ≤ hi (None = unbounded).
        Docids absent from the store never match.  Only the shards the
        candidate docids fall into are loaded."""
        docids = np.asarray(docids, dtype=np.int64)
        out = np.zeros(len(docids), dtype=bool)
        if not self._has_files or not len(docids):
            return out
        shards = self._shard_of(docids)
        for sh in np.unique(shards):
            sel = shards == sh
            store = self._get_shard(int(sh))
            idx, ok = self._locate_in(store, docids[sel])
            for col, spec in filters.items():
                if not ok.any():
                    break
                ok &= self._eval_filter(store.columns, col, spec, idx)
            out[sel] = ok
        return out

    def contains(self, docids: np.ndarray) -> np.ndarray:
        """Presence mask (docid stored?), loading only touched shards —
        the delta-chain field-resolution probe (query/multi.py)."""
        docids = np.asarray(docids, dtype=np.int64)
        out = np.zeros(len(docids), dtype=bool)
        if not self._has_files or not len(docids):
            return out
        shards = self._shard_of(docids)
        for sh in np.unique(shards):
            sel = shards == sh
            _, found = self._locate_in(self._get_shard(int(sh)), docids[sel])
            out[sel] = found
        return out

    @property
    def is_empty(self) -> bool:
        return not self._has_files

    def count_rows(self) -> int:
        """Total stored docs (diagnostics/tests only: loads every shard)."""
        return sum(len(self._get_shard(sh).docids)
                   for sh in list(self._shard_files))

    def scan(self, filters: dict) -> np.ndarray:
        """Filter-context-ONLY query (no scoring terms): docids whose
        stored fields satisfy ``filters`` — the ES ``constant_score`` term/
        range query on a keyword (sub)field.  This is a full docvalues scan
        (vectorized per shard, shards streamed through the LRU); a
        dedicated keyword posting index is the optimization path if these
        dominate a workload."""
        out = []
        for sh in sorted(self._shard_files):
            store = self._get_shard(int(sh))
            if not len(store.docids):
                continue
            m = np.ones(len(store.docids), dtype=bool)
            for col, spec in filters.items():
                if not m.any():
                    break
                m &= self._eval_filter(store.columns, col, spec)
            if m.any():
                out.append(store.docids[m])
        return (np.sort(np.concatenate(out)) if out
                else np.empty(0, dtype=np.int64))

    def get(self, docids: np.ndarray, cols: list[str]) -> dict[str, pa.Array]:
        """Field values for docids (docstore retrieval), one Arrow array
        per column in its stored type (:attr:`field_types`).  Missing
        values and docids absent from the store are null (never a
        neighbor's values); empty input gives empty arrays of the same
        types.  A column the store does not hold is all null.  Loads
        only the touched shards."""
        docids = np.asarray(docids, dtype=np.int64)
        types = {c: self.field_types.get(c, pa.null()) for c in cols}
        parts = []
        shards = self._shard_of(docids)
        for sh in np.unique(shards) if self._has_files else ():
            sel = np.flatnonzero(shards == sh)
            store = self._get_shard(int(sh))
            idx, found = self._locate_in(store, docids[sel])
            if not found.any():
                continue
            rows = pa.array(idx[found])
            parts.append((sel[found], {
                c: (store.arrays[c].take(rows) if c in store.arrays
                    else pa.nulls(len(rows), types[c])) for c in cols}))
        return scatter(len(docids), parts, types)
