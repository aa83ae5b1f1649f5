"""The smoke and sweep cycles can run any number of times against one
server: each run uploads under its own record-id prefix."""

import io

from repro.ec.params import TOY80
from repro.service.smoke import run_smoke, run_sweep_cycle

from .conftest import run, start_service


def test_each_cycle_passes_twice_against_one_server(group, store_root):
    async def body():
        service = await start_service(group, store_root)
        codes, transcripts = [], []
        try:
            for _ in range(2):
                for cycle, kwargs in ((run_smoke, {}),
                                      (run_sweep_cycle, {"records": 4})):
                    out = io.StringIO()
                    codes.append(await cycle(TOY80, service.host,
                                             service.port, out=out,
                                             **kwargs))
                    transcripts.append(out.getvalue())
            return codes, transcripts, service.store.record_ids()
        finally:
            await service.stop()

    codes, transcripts, record_ids = run(body())
    assert codes == [0, 0, 0, 0], transcripts
    assert len(record_ids) == 2 * (1 + 4)
