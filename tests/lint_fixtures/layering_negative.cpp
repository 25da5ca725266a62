// Known-negative fixture for the layering rule. NOT compiled — consumed by
// tests/test_lint.cpp under the synthetic path
// src/router/layering_negative.cpp: every include below is legal for the
// router module (rank 7): strictly lower-ranked modules, obs (includable
// anywhere), angled system headers, same-module headers, and unranked
// project paths.
#include <mutex>
#include <vector>

#include "util/jobs.hpp"
#include "db/design.hpp"
#include "pao/oracle.hpp"
#include "obs/metrics.hpp"
#include "router/grid.hpp"
#include "lint/lexer.hpp"

int layeringNegative();
