"""The test session's Spark driver heap must fit the machine."""
import os

from conftest import _driver_mem


def test_driver_mem_within_physical_memory(monkeypatch):
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    monkeypatch.delenv("_SPARK_DRIVER_MEM_SRC", raising=False)
    mem = _driver_mem()
    phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert mem.endswith("g")
    assert int(mem[:-1]) << 30 <= phys
