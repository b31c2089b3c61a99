"""robots.txt policy: parse/match + per-host crawl delay.  [pure]

Reference semantics reproduced (crawler/crawler_node.py:27-55 RobotsCache;
archive/crawler_node.py:48-78 crawl-delay extraction):

- rules are cached per host (TTL 3600 s in the reference; irrelevant for the
  closed fixture web but kept on the record struct),
- robots fetch failure => allow-all BUT conservative 3000 ms delay,
- crawl delay >= 1000 ms always (v1 ``max(1, crawl_delay)``),
- host absent from the robots table => allow-all, default 1000 ms delay,
- a URL is disallowed when any disallow prefix matches its path
  (urllib.robotparser longest-prefix semantics degenerate to prefix-match for
  the plain path prefixes the fixture uses).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa


@dataclass(frozen=True)
class HostPolicy:
    host: str
    disallow: tuple[str, ...]
    crawl_delay_ms: int
    fetch_fails: bool = False
    fetched_at: float = 0.0

    def allows(self, canon_url: str) -> bool:
        if self.fetch_fails:  # robots unreachable -> assume allowed
            return True
        if not self.disallow:
            return True
        rest = canon_url.split("://", 1)[1]
        slash = rest.find("/")
        path = rest[slash:] if slash >= 0 else "/"
        return not any(path.startswith(p) for p in self.disallow)


DEFAULT_DELAY_MS = 1000
CONSERVATIVE_DELAY_MS = 3000


@dataclass
class RobotsPolicies:
    """All host policies for a crawl — the broadcast-small-side lookup (J2)."""

    by_host: dict[str, HostPolicy] = field(default_factory=dict)

    @classmethod
    def from_table(cls, robots: pa.Table) -> "RobotsPolicies":
        d = robots.to_pydict()
        out: dict[str, HostPolicy] = {}
        for i in range(robots.num_rows):
            fails = bool(d["fetch_fails"][i])
            delay = int(d["crawl_delay_ms"][i])
            floor = CONSERVATIVE_DELAY_MS if fails else DEFAULT_DELAY_MS
            out[d["host"][i]] = HostPolicy(
                host=d["host"][i],
                disallow=() if fails else tuple(d["disallow"][i]),
                crawl_delay_ms=max(floor, delay),
                fetch_fails=fails,
            )
        return cls(out)

    def policy(self, host: str) -> HostPolicy:
        p = self.by_host.get(host)
        if p is None:
            p = HostPolicy(host=host, disallow=(), crawl_delay_ms=DEFAULT_DELAY_MS)
            self.by_host[host] = p
        return p

    def allows(self, host: str, canon_url: str) -> bool:
        return self.policy(host).allows(canon_url)

    def allowed_mask(self, hosts: list[str], canons: list[str]) -> np.ndarray:
        """The robots gate over a batch: ``allows(hosts[i], canons[i])`` for
        every row, looking each distinct host's policy up once."""
        pols = {h: self.policy(h) for h in set(hosts)}
        return np.fromiter(
            (pols[h].allows(c) for h, c in zip(hosts, canons)),
            dtype=bool,
            count=len(canons),
        )

    def delay_ms(self, host: str) -> int:
        return self.policy(host).crawl_delay_ms


# --------------------------------------------------- live robots.txt (A2)


def parse_robots_txt(
    text: str, user_agent: str = "*"
) -> tuple[tuple[str, ...], int | None]:
    """Parse a robots.txt body into (disallow prefixes, crawl_delay_ms|None).

    Implements the robots exclusion standard subset the reference relies on
    (``RobotFileParser.can_fetch`` + ``crawl_delay``,
    crawler/crawler_node.py:37-55 / archive/crawler_node.py:58-66): grouped
    ``User-agent`` records, ``Disallow`` path prefixes, ``Crawl-delay``
    seconds.  The most specific matching group wins — per RFC 9309 that is
    the LONGEST agent token contained in our UA, with ``*`` as the fallback
    (r2 ADVICE: first-in-file order applied the wrong group when a less
    specific token appeared earlier).  ``Allow`` lines are ignored —
    strictly more conservative than longest-match Allow/Disallow resolution.
    """
    ua = user_agent.lower()
    groups: list[tuple[list[str], list[str], float | None]] = []
    agents: list[str] = []
    rules: list[str] = []
    delay: float | None = None
    fresh = True  # a User-agent line after any rule line starts a new group

    def close() -> None:
        nonlocal agents, rules, delay
        if agents:
            groups.append((agents, rules, delay))
        agents, rules, delay = [], [], None

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        key, _, val = line.partition(":")
        key = key.strip().lower()
        val = val.strip()
        if key == "user-agent":
            if not fresh:
                close()
                fresh = True
            agents.append(val.lower())
        else:
            # ANY non-User-agent directive (Disallow, Crawl-delay, Allow,
            # Sitemap, ...) ends the agent block: a later User-agent line
            # starts a NEW group instead of merging into this one (r2
            # ADVICE — merging applied group B's rules to group A's agents)
            fresh = False
            if key == "disallow":
                if val:
                    rules.append(val)
            elif key == "crawl-delay":
                try:
                    delay = float(val)
                except ValueError:
                    pass
    close()

    best: tuple[list[str], float | None] | None = None
    best_len = -1
    star: tuple[list[str], float | None] | None = None
    for ag, ru, dl in groups:
        for a in ag:
            if a != "*" and a in ua and len(a) > best_len:
                best, best_len = (ru, dl), len(a)
        if star is None and "*" in ag:
            star = (ru, dl)
    chosen = best if best is not None else star
    if chosen is None:
        return (), None
    ru, dl = chosen
    return tuple(ru), None if dl is None else int(dl * 1000)


def fetch_robots_http(
    hosts: list[str],
    user_agent: str = "RayCrawlBot/1.0",
    timeout_s: float = 10.0,
    scheme: str = "http",
) -> pa.Table:
    """Fetch + parse robots.txt for each host over live HTTP; returns the
    same table schema the fixture provides, so ``RobotsPolicies.from_table``
    and the whole scheduler run unchanged on a live deployment.

    Reference semantics (crawler/crawler_node.py:37-55): 2xx -> parse;
    4xx (no robots.txt) -> allow-all with the default delay; network error /
    5xx -> allow-all but CONSERVATIVE delay (``fetch_fails=True``, the v1
    3 s fallback).  This is the driver-side small-side build: one row per
    host, broadcast once via ray.put like the fixture table.
    """
    import requests

    session = requests.Session()
    session.headers["User-Agent"] = user_agent
    out_h: list[str] = []
    out_d: list[list[str]] = []
    out_ms: list[int] = []
    out_f: list[bool] = []
    for host in hosts:
        fails = False
        dis: tuple[str, ...] = ()
        delay_ms: int | None = None
        try:
            r = session.get(f"{scheme}://{host}/robots.txt", timeout=timeout_s)
            if 200 <= r.status_code < 300:
                dis, delay_ms = parse_robots_txt(r.text, user_agent)
            elif r.status_code >= 500:
                fails = True
            # 4xx: no robots.txt -> allow-all, default delay
        except Exception:
            fails = True
        out_h.append(host)
        out_d.append(list(dis))
        out_ms.append(
            delay_ms
            if delay_ms is not None
            else (CONSERVATIVE_DELAY_MS if fails else DEFAULT_DELAY_MS)
        )
        out_f.append(fails)
    return pa.table(
        {
            "host": pa.array(out_h, pa.string()),
            "disallow": pa.array(out_d, pa.list_(pa.string())),
            "crawl_delay_ms": pa.array(out_ms, pa.int32()),
            "fetch_fails": pa.array(out_f, pa.bool_()),
        }
    )
