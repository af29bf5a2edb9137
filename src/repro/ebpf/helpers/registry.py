"""The helper registry: every helper the modeled kernel exposes.

``build_default_registry()`` assembles the Linux-5.18 population used
throughout the reproduction: 30 fully executable helpers (including
every helper the paper discusses by name) plus catalog entries for the
rest of the 249, carrying the metadata the measurements need
(introduction version for Figure 4, call-graph size for Figure 3,
§3.2 classification for the retirement survey).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ebpf.helpers import ids
from repro.ebpf.helpers import impls_core, impls_net, impls_sys
from repro.ebpf.helpers.base import ArgType, FuncProto, HelperSpec, RetType
from repro.kernel.funcdb import FunctionDatabase

A = ArgType
R = RetType


class HelperRegistry:
    """Lookup by id/name plus population-level queries."""

    def __init__(self) -> None:
        self._by_id: Dict[int, HelperSpec] = {}
        self._by_name: Dict[str, HelperSpec] = {}

    def register(self, spec: HelperSpec) -> HelperSpec:
        """Add a helper; ids and names must be unique."""
        if spec.helper_id in self._by_id:
            raise ValueError(f"duplicate helper id {spec.helper_id}")
        if spec.name in self._by_name:
            raise ValueError(f"duplicate helper name {spec.name}")
        self._by_id[spec.helper_id] = spec
        self._by_name[spec.name] = spec
        return spec

    def get(self, helper_id: int) -> Optional[HelperSpec]:
        """Spec by id (None for unknown helpers — verifier rejects)."""
        return self._by_id.get(helper_id)

    def by_name(self, name: str) -> Optional[HelperSpec]:
        """Spec by name."""
        return self._by_name.get(name)

    def all_specs(self) -> List[HelperSpec]:
        """All registered helpers ordered by id."""
        return [self._by_id[k] for k in sorted(self._by_id)]

    def implemented(self) -> List[HelperSpec]:
        """Helpers with executable models."""
        return [s for s in self.all_specs() if s.is_implemented]

    def __len__(self) -> int:
        return len(self._by_id)

    def count_at_version(self, version_order: List[str],
                         version: str) -> int:
        """Helpers present at ``version`` given the ordered timeline."""
        cutoff = version_order.index(version)
        return sum(1 for s in self.all_specs()
                   if s.introduced in version_order
                   and version_order.index(s.introduced) <= cutoff)

    def attach_to_funcdb(self, db: FunctionDatabase) -> Dict[str, int]:
        """Add every helper as a node in the synthetic kernel call
        graph, wired so its measured closure matches its documented
        ``callgraph_size``.  Returns name -> function id."""
        fn_ids: Dict[str, int] = {}
        for spec in self.all_specs():
            if db.lookup(spec.name) is not None:
                fn_ids[spec.name] = db.lookup(spec.name).fn_id
                continue
            if spec.callgraph_size <= 0:
                callees: List[int] = []
            else:
                callees = [db.entry_with_closure(spec.callgraph_size - 1)]
            fn_ids[spec.name] = db.add_function(
                spec.name, "bpf", loc=30 + spec.callgraph_size // 50,
                callees=callees)
        return fn_ids


def _implemented_specs() -> List[HelperSpec]:
    """The 30 executable helpers, with real Linux ids and protos."""
    mem_pair = [A.PTR_TO_MEM, A.CONST_SIZE]
    return [
        HelperSpec(
            ids.BPF_FUNC_map_lookup_elem, "bpf_map_lookup_elem",
            FuncProto([A.CONST_MAP_PTR, A.PTR_TO_MAP_KEY],
                      R.MAP_VALUE_OR_NULL, forbidden_under_spinlock=False),
            impls_core.bpf_map_lookup_elem, "v3.18", 50, "simplify"),
        HelperSpec(
            ids.BPF_FUNC_map_update_elem, "bpf_map_update_elem",
            FuncProto([A.CONST_MAP_PTR, A.PTR_TO_MAP_KEY,
                       A.PTR_TO_MAP_VALUE, A.ANYTHING], R.INTEGER,
                      forbidden_under_spinlock=False),
            impls_core.bpf_map_update_elem, "v3.18", 120, "simplify",
            bug_tags=["array_map_32bit_overflow"]),
        HelperSpec(
            ids.BPF_FUNC_map_delete_elem, "bpf_map_delete_elem",
            FuncProto([A.CONST_MAP_PTR, A.PTR_TO_MAP_KEY], R.INTEGER,
                      forbidden_under_spinlock=False),
            impls_core.bpf_map_delete_elem, "v3.18", 80, "simplify"),
        HelperSpec(
            ids.BPF_FUNC_probe_read, "bpf_probe_read",
            FuncProto([A.PTR_TO_UNINIT_MEM, A.CONST_SIZE, A.ANYTHING],
                      R.INTEGER),
            impls_core.bpf_probe_read, "v3.18", 30, "wrap",
            notes="reads arbitrary kernel memory"),
        HelperSpec(
            ids.BPF_FUNC_ktime_get_ns, "bpf_ktime_get_ns",
            FuncProto([], R.INTEGER, forbidden_under_spinlock=False),
            impls_core.bpf_ktime_get_ns, "v3.18", 5, "keep"),
        HelperSpec(
            ids.BPF_FUNC_trace_printk, "bpf_trace_printk",
            FuncProto(list(mem_pair), R.INTEGER),
            impls_core.bpf_trace_printk, "v3.18", 200, "keep"),
        HelperSpec(
            ids.BPF_FUNC_get_prandom_u32, "bpf_get_prandom_u32",
            FuncProto([], R.INTEGER, forbidden_under_spinlock=False),
            impls_core.bpf_get_prandom_u32, "v3.18", 3, "keep"),
        HelperSpec(
            ids.BPF_FUNC_get_smp_processor_id, "bpf_get_smp_processor_id",
            FuncProto([], R.INTEGER, forbidden_under_spinlock=False),
            impls_core.bpf_get_smp_processor_id, "v3.18", 1, "keep"),
        HelperSpec(
            ids.BPF_FUNC_perf_event_output, "bpf_perf_event_output",
            FuncProto([A.PTR_TO_CTX, A.CONST_MAP_PTR, A.ANYTHING,
                       A.PTR_TO_MEM, A.CONST_SIZE], R.INTEGER),
            impls_core.bpf_perf_event_output, "v4.3", 350, "simplify"),
        HelperSpec(
            ids.BPF_FUNC_probe_read_str, "bpf_probe_read_str",
            FuncProto([A.PTR_TO_UNINIT_MEM, A.CONST_SIZE, A.ANYTHING],
                      R.INTEGER),
            impls_core.bpf_probe_read_str, "v4.20", 32, "wrap"),
        HelperSpec(
            ids.BPF_FUNC_jiffies64, "bpf_jiffies64",
            FuncProto([], R.INTEGER, forbidden_under_spinlock=False),
            impls_core.bpf_jiffies64, "v5.4", 2, "keep"),
        HelperSpec(
            ids.BPF_FUNC_ktime_get_boot_ns, "bpf_ktime_get_boot_ns",
            FuncProto([], R.INTEGER, forbidden_under_spinlock=False),
            impls_core.bpf_ktime_get_boot_ns, "v5.10", 6, "keep"),
        HelperSpec(
            ids.BPF_FUNC_snprintf, "bpf_snprintf",
            FuncProto([A.PTR_TO_UNINIT_MEM, A.CONST_SIZE, A.ANYTHING,
                       A.PTR_TO_MEM, A.CONST_SIZE], R.INTEGER),
            impls_core.bpf_snprintf, "v5.15", 45, "retire",
            notes="pure formatting: format!/core::fmt in the proposed "
                  "framework (§3.2)"),
        HelperSpec(
            ids.BPF_FUNC_tail_call, "bpf_tail_call",
            FuncProto([A.PTR_TO_CTX, A.CONST_MAP_PTR, A.ANYTHING],
                      R.INTEGER),
            impls_sys.bpf_tail_call, "v4.3", 12, "retire",
            notes="exists because programs cannot call functions [44]"),
        HelperSpec(
            ids.BPF_FUNC_get_current_pid_tgid, "bpf_get_current_pid_tgid",
            FuncProto([], R.INTEGER, forbidden_under_spinlock=False),
            impls_core.bpf_get_current_pid_tgid, "v4.3", 0, "keep",
            notes="Figure 3 floor: calls no other kernel function"),
        HelperSpec(
            ids.BPF_FUNC_get_current_uid_gid, "bpf_get_current_uid_gid",
            FuncProto([], R.INTEGER, forbidden_under_spinlock=False),
            impls_core.bpf_get_current_uid_gid, "v4.3", 8, "keep"),
        HelperSpec(
            ids.BPF_FUNC_get_current_comm, "bpf_get_current_comm",
            FuncProto([A.PTR_TO_UNINIT_MEM, A.CONST_SIZE], R.INTEGER),
            impls_core.bpf_get_current_comm, "v4.3", 10, "keep"),
        HelperSpec(
            ids.BPF_FUNC_get_current_task, "bpf_get_current_task",
            FuncProto([], R.KERNEL_ADDR_SCALAR),
            impls_core.bpf_get_current_task, "v4.9", 0, "wrap",
            notes="returns a raw kernel address as a scalar"),
        HelperSpec(
            ids.BPF_FUNC_redirect_map, "bpf_redirect_map",
            FuncProto([A.CONST_MAP_PTR, A.ANYTHING, A.ANYTHING],
                      R.INTEGER, forbidden_under_spinlock=False),
            impls_net.bpf_redirect_map, "v4.14", 35, "simplify",
            notes="XDP devmap redirect; verdict consumed by the data "
                  "plane after program exit"),
        HelperSpec(
            ids.BPF_FUNC_sk_lookup_tcp, "bpf_sk_lookup_tcp",
            FuncProto([A.PTR_TO_CTX, A.PTR_TO_MEM, A.CONST_SIZE,
                       A.ANYTHING, A.ANYTHING],
                      R.SOCKET_OR_NULL, acquires="socket"),
            impls_net.bpf_sk_lookup_tcp, "v4.20", 650, "simplify",
            bug_tags=["sk_lookup_reqsk_leak"]),
        HelperSpec(
            ids.BPF_FUNC_sk_lookup_udp, "bpf_sk_lookup_udp",
            FuncProto([A.PTR_TO_CTX, A.PTR_TO_MEM, A.CONST_SIZE,
                       A.ANYTHING, A.ANYTHING],
                      R.SOCKET_OR_NULL, acquires="socket"),
            impls_net.bpf_sk_lookup_udp, "v4.20", 640, "simplify",
            bug_tags=["sk_lookup_reqsk_leak"]),
        HelperSpec(
            ids.BPF_FUNC_sk_release, "bpf_sk_release",
            FuncProto([A.PTR_TO_SOCKET], R.INTEGER, releases=True),
            impls_net.bpf_sk_release, "v4.20", 45, "simplify"),
        HelperSpec(
            ids.BPF_FUNC_spin_lock, "bpf_spin_lock",
            FuncProto([A.PTR_TO_SPIN_LOCK], R.VOID,
                      forbidden_under_spinlock=False),
            impls_sys.bpf_spin_lock, "v5.4", 2, "simplify",
            notes="the verifier grew single-lock discipline for it [48]"),
        HelperSpec(
            ids.BPF_FUNC_spin_unlock, "bpf_spin_unlock",
            FuncProto([A.PTR_TO_SPIN_LOCK], R.VOID,
                      forbidden_under_spinlock=False),
            impls_sys.bpf_spin_unlock, "v5.4", 2, "simplify"),
        HelperSpec(
            ids.BPF_FUNC_strtol, "bpf_strtol",
            FuncProto(mem_pair + [A.ANYTHING, A.PTR_TO_LONG], R.INTEGER),
            impls_sys.bpf_strtol, "v5.4", 15, "retire",
            notes="core::str::parse in the proposed framework (§3.2)"),
        HelperSpec(
            ids.BPF_FUNC_probe_read_kernel, "bpf_probe_read_kernel",
            FuncProto([A.PTR_TO_UNINIT_MEM, A.CONST_SIZE, A.ANYTHING],
                      R.INTEGER),
            impls_core.bpf_probe_read_kernel, "v5.10", 28, "wrap"),
        HelperSpec(
            ids.BPF_FUNC_ringbuf_output, "bpf_ringbuf_output",
            FuncProto([A.CONST_MAP_PTR] + mem_pair + [A.ANYTHING],
                      R.INTEGER),
            impls_sys.bpf_ringbuf_output, "v5.10", 90, "simplify"),
        HelperSpec(
            ids.BPF_FUNC_ringbuf_reserve, "bpf_ringbuf_reserve",
            FuncProto([A.CONST_MAP_PTR, A.CONST_SIZE, A.ANYTHING],
                      R.MEM_OR_NULL, acquires="ringbuf_mem"),
            impls_sys.bpf_ringbuf_reserve, "v5.10", 60, "simplify"),
        HelperSpec(
            ids.BPF_FUNC_ringbuf_submit, "bpf_ringbuf_submit",
            FuncProto([A.PTR_TO_ALLOC_MEM, A.ANYTHING], R.VOID,
                      releases=True),
            impls_sys.bpf_ringbuf_submit, "v5.10", 40, "simplify"),
        HelperSpec(
            ids.BPF_FUNC_ringbuf_discard, "bpf_ringbuf_discard",
            FuncProto([A.PTR_TO_ALLOC_MEM, A.ANYTHING], R.VOID,
                      releases=True),
            impls_sys.bpf_ringbuf_discard, "v5.10", 35, "simplify"),
        HelperSpec(
            ids.BPF_FUNC_get_task_stack, "bpf_get_task_stack",
            FuncProto([A.ANYTHING, A.PTR_TO_UNINIT_MEM, A.CONST_SIZE,
                       A.ANYTHING], R.INTEGER),
            impls_sys.bpf_get_task_stack, "v5.10", 320, "simplify",
            bug_tags=["task_stack_missing_ref"]),
        HelperSpec(
            ids.BPF_FUNC_task_storage_get, "bpf_task_storage_get",
            FuncProto([A.CONST_MAP_PTR, A.ANYTHING, A.ANYTHING,
                       A.ANYTHING], R.MAP_VALUE_OR_NULL),
            impls_sys.bpf_task_storage_get, "v5.15", 180, "wrap",
            bug_tags=["task_storage_null_deref"],
            notes="the verifier cannot see that the task arg is NULL [42]"),
        HelperSpec(
            ids.BPF_FUNC_task_storage_delete, "bpf_task_storage_delete",
            FuncProto([A.CONST_MAP_PTR, A.ANYTHING], R.INTEGER),
            impls_sys.bpf_task_storage_delete, "v5.15", 150, "wrap",
            bug_tags=["task_storage_null_deref"]),
        HelperSpec(
            ids.BPF_FUNC_sys_bpf, "bpf_sys_bpf",
            FuncProto([A.ANYTHING] + mem_pair, R.INTEGER),
            impls_sys.bpf_sys_bpf, "v5.15", 4845, "wrap",
            bug_tags=["sys_bpf_null_union"],
            notes="Figure 3 maximum: 4845 call-graph nodes; CVE-2022-2785"),
        HelperSpec(
            ids.BPF_FUNC_loop, "bpf_loop",
            FuncProto([A.ANYTHING, A.PTR_TO_FUNC, A.PTR_TO_STACK_OR_NULL,
                       A.ANYTHING], R.INTEGER),
            impls_sys.bpf_loop, "v5.18", 9, "retire",
            notes="merely provides a loop mechanism (§3.2)"),
        HelperSpec(
            ids.BPF_FUNC_strncmp, "bpf_strncmp",
            FuncProto(mem_pair + [A.ANYTHING], R.INTEGER),
            impls_sys.bpf_strncmp, "v5.18", 4, "retire",
            notes="implementable entirely in safe Rust (§3.2)"),
    ]


def build_default_registry() -> HelperRegistry:
    """The full Linux-5.18 helper population: 30 executable helpers
    plus catalog entries up to 249 total."""
    # imported here to avoid a cycle: catalog sizes itself relative to
    # the implemented specs
    from repro.ebpf.helpers.catalog import catalog_specs

    registry = HelperRegistry()
    implemented = _implemented_specs()
    for spec in implemented:
        registry.register(spec)
    for spec in catalog_specs(implemented):
        registry.register(spec)
    return registry
