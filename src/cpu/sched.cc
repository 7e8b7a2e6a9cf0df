#include "cpu/sched.hh"

#include "sim/logging.hh"

namespace pm::cpu {

void
runJobs(std::vector<Job> &jobs)
{
    std::vector<bool> done(jobs.size(), false);
    std::size_t remaining = jobs.size();
    for (const Job &j : jobs) {
        if (!j.proc || !j.work)
            pm_fatal("runJobs: null proc or workload");
    }

    while (remaining > 0) {
        // Pick the unfinished processor with the smallest local time.
        std::size_t best = jobs.size();
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (done[i])
                continue;
            if (best == jobs.size() ||
                jobs[i].proc->time() < jobs[best].proc->time())
                best = i;
        }
        Job &j = jobs[best];
        // No future request can be issued before the minimum time:
        // let shared resources prune their reservation calendars.
        j.proc->bus()->setTimeFloor(j.proc->time());
        if (!j.work->step(*j.proc)) {
            j.proc->drain();
            done[best] = true;
            --remaining;
        }
    }
}

} // namespace pm::cpu
