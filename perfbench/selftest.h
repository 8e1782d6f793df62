// Self-test of the measuring apparatus at toy scale (hbench --selftest).

#ifndef HSCHED_PERFBENCH_SELFTEST_H_
#define HSCHED_PERFBENCH_SELFTEST_H_

namespace hbench {

// Prints one PASS/FAIL line per check; returns the process exit code (0 = all pass).
int RunSelfTest();

}  // namespace hbench

#endif  // HSCHED_PERFBENCH_SELFTEST_H_
