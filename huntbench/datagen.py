"""Seeded audit histories for the hunting and ingest workloads.

The seed picks identities — users, binaries, file names, addresses,
session order and idle gaps — while the *shape* of the history is fixed:
every block holds the same number of sessions of each kind, every
session the same number of actions.  Join sizes, match counts and store
sizes therefore barely move from seed to seed, and the spread between
seeds measures the host, not the data.

A history is a run of time blocks separated by idle gaps.  Each block
becomes one sealed segment.  Window bounds that fall inside a gap select
exactly the same events wherever in the gap they fall, which lets the
scan workload issue many distinct query texts with identical answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime, timezone
from operator import attrgetter

from repro.audit import AuditCollector, CollectorConfig
from repro.audit.entities import Operation, SystemEvent

USERS = ["alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi",
         "ivan", "judy", "niaj", "olivia", "peggy", "rupert", "sybil",
         "trent"]
EDITORS = ["/usr/bin/vim", "/usr/bin/nano", "/usr/bin/emacs"]
SHELLS = ["/bin/bash", "/bin/zsh"]
DEV_TOOLS = ["/usr/bin/gcc", "/usr/bin/make", "/usr/bin/python3",
             "/usr/bin/git"]
BROWSERS = ["/usr/bin/firefox", "/usr/bin/chrome"]
DAEMONS = ["/usr/sbin/cron", "/usr/sbin/rsyslogd", "/usr/sbin/sshd"]
WEB_IPS = ["93.184.216.34", "151.101.1.69", "142.250.72.206",
           "104.16.132.229", "13.107.42.14"]
DOC_DIRS = ["/home/{user}/docs", "/home/{user}/projects", "/var/data/shared"]
SYSTEM_FILES = ["/var/log/syslog", "/var/log/auth.log", "/etc/hosts",
                "/proc/meminfo"]

#: Idle seconds between blocks.
GAP_SECONDS = 4000.0
#: Sessions per block, by kind; fixed so only identities vary by seed.
BLOCK_SESSIONS = {"edit": 6, "dev": 6, "copy": 4, "browse": 4, "daemon": 4}
#: Actions per session.
ACTIONS = 6
#: Blocks that carry one injected attack chain each.
ATTACK_BLOCKS = (2, 7, 12)
START_TIME = 1_523_400_000.0


@dataclass
class History:
    """A generated history, cut into one batch per block."""

    batches: list[list[SystemEvent]]
    #: (first start_time, last end_time) of each block.
    bounds: list[tuple[float, float]]
    attacker_ip: str
    raw_events: int = field(init=False)

    def __post_init__(self) -> None:
        self.raw_events = sum(len(batch) for batch in self.batches)

    def gap_time(self, block: int, fraction: float) -> float:
        """A time inside the idle gap before ``block`` (0 = before the
        first block); ``fraction`` in [0, 1) picks the point."""
        if block == 0:
            high = self.bounds[0][0]
            low = high - GAP_SECONDS
        elif block >= len(self.bounds):
            low = self.bounds[-1][1]
            high = low + GAP_SECONDS
        else:
            low = self.bounds[block - 1][1]
            high = self.bounds[block][0]
        return low + 1.0 + (high - low - 2.0) * fraction


def tbql_time(epoch: float) -> str:
    """TBQL's absolute time literal (UTC, whole seconds)."""
    return datetime.fromtimestamp(int(epoch), timezone.utc).strftime(
        "%Y-%m-%d %H:%M:%S")


class _Generator:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.collector = AuditCollector(CollectorConfig(
            seed=seed, start_time=START_TIME))
        self.events: list[SystemEvent] = []

    def _user_file(self, user: str, name: str) -> str:
        return f"{self.rng.choice(DOC_DIRS).format(user=user)}/{name}"

    def _edit(self) -> None:
        rng, c = self.rng, self.collector
        user = rng.choice(USERS)
        editor = c.spawn_process(rng.choice(EDITORS), user=user)
        for index in range(ACTIONS):
            path = self._user_file(user, f"report_{index}.txt")
            self.events += c.read_file(editor, path, burst=2)
            self.events += c.write_file(editor, path, burst=2)

    def _dev(self) -> None:
        rng, c = self.rng, self.collector
        user = rng.choice(USERS)
        shell = c.spawn_process(rng.choice(SHELLS), user=user)
        for index in range(ACTIONS):
            tool, started = c.start_process(shell, rng.choice(DEV_TOOLS))
            self.events += started
            self.events += c.read_file(
                tool, self._user_file(user, f"src/module_{index}.c"))
            self.events += c.write_file(
                tool, self._user_file(user, f"build/module_{index}.o"))
            self.events += c.record(tool, Operation.END, tool)

    def _copy(self) -> None:
        rng, c = self.rng, self.collector
        user = rng.choice(USERS)
        shell = c.spawn_process(rng.choice(SHELLS), user=user)
        for index in range(ACTIONS):
            tool, started = c.start_process(shell, "/bin/cp")
            self.events += started
            source = self._user_file(user, f"data_{index}.csv")
            self.events += c.read_file(tool, source)
            self.events += c.write_file(tool, source + ".bak")

    def _browse(self) -> None:
        rng, c = self.rng, self.collector
        user = rng.choice(USERS)
        browser = c.spawn_process(rng.choice(BROWSERS), user=user)
        for _ in range(ACTIONS):
            address = rng.choice(WEB_IPS)
            self.events += c.connect_ip(browser, address)
            self.events += c.receive_from(browser, address)
            self.events += c.write_file(
                browser, f"/home/{user}/.cache/web/{rng.randrange(99999)}")

    def _daemon(self) -> None:
        rng, c = self.rng, self.collector
        daemon = c.spawn_process(rng.choice(DAEMONS))
        for _ in range(ACTIONS):
            self.events += c.write_file(daemon, rng.choice(SYSTEM_FILES),
                                        burst=2)
            self.events += c.connect_ip(daemon, "10.0.0.1", 514)

    def _attack(self, attacker_ip: str, victim: str, archive: str) -> None:
        c = self.collector
        shell = c.spawn_process("/bin/bash", user="mallory")
        tar, started = c.start_process(shell, "/bin/tar")
        self.events += started
        self.events += c.read_file(tar, "/etc/passwd")
        self.events += c.read_file(tar, "/etc/shadow")
        self.events += c.write_file(tar, archive)
        curl, started = c.start_process(shell, "/usr/bin/curl")
        self.events += started
        self.events += c.read_file(curl, archive)
        self.events += c.connect_ip(curl, attacker_ip)
        self.events += c.send_to(curl, attacker_ip, burst=4)
        shred, started = c.start_process(shell, "/usr/bin/shred")
        self.events += started
        for index in range(4):
            self.events += c.record(
                shred, Operation.DELETE,
                c.file(f"/home/{victim}/docs/doc-{index}.txt"))
        self.events += c.record(shell, Operation.CHMOD,
                                c.file("/tmp/.x/run.sh"))

    def build(self, blocks: int) -> History:
        rng = self.rng
        attacker_ip = f"203.0.113.{rng.randrange(2, 250)}"
        victim = rng.choice(USERS)
        archive = f"/tmp/.{rng.randrange(10**6):06d}.tar"
        kinds = {"edit": self._edit, "dev": self._dev, "copy": self._copy,
                 "browse": self._browse, "daemon": self._daemon}
        batches, bounds = [], []
        for block in range(blocks):
            schedule = [kind for kind, count in BLOCK_SESSIONS.items()
                        for _ in range(count)]
            rng.shuffle(schedule)
            self.events = []
            for position, kind in enumerate(schedule):
                if block in ATTACK_BLOCKS and \
                        position == len(schedule) // 2:
                    self._attack(attacker_ip, victim, archive)
                kinds[kind]()
                self.collector.advance(rng.uniform(1.0, 12.0))
            batch = sorted(self.events,
                           key=attrgetter("start_time", "event_id"))
            batches.append(batch)
            bounds.append((batch[0].start_time,
                           max(event.end_time for event in batch)))
            self.collector.advance(GAP_SECONDS)
        return History(batches, bounds, attacker_ip)


def generate_history(seed: int, blocks: int = 16) -> History:
    """A seeded history of ``blocks`` blocks."""
    return _Generator(seed).build(blocks)
