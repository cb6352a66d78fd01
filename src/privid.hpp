// Umbrella header: the full public API of the privid library.
//
//   #include "privid.hpp"
//
// pulls in everything a downstream user needs — the Privid facade, the
// query language, the simulator and CV substrates, the owner-side mask
// optimization, and the analyst executables. Individual module headers can
// be included directly for faster builds.
#pragma once

// Common substrate.
#include "common/error.hpp"
#include "common/interval_map.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timeutil.hpp"

// Tables and relational operators.
#include "table/aggregate.hpp"
#include "table/ops.hpp"
#include "table/schema.hpp"
#include "table/table.hpp"
#include "table/value.hpp"

// Privacy primitives.
#include "privacy/budget.hpp"
#include "privacy/degradation.hpp"
#include "privacy/gaussian.hpp"
#include "privacy/laplace.hpp"

// Video abstractions.
#include "video/chunker.hpp"
#include "video/mask.hpp"
#include "video/region.hpp"
#include "video/video.hpp"

// Scene simulation (synthetic recordings + real-data import).
#include "sim/entity.hpp"
#include "sim/foliage.hpp"
#include "sim/porto.hpp"
#include "sim/scenarios.hpp"
#include "sim/scene.hpp"
#include "sim/track_io.hpp"
#include "sim/traffic_light.hpp"
#include "sim/trajectory.hpp"

// Synthetic CV stack.
#include "cv/batch.hpp"
#include "cv/detector.hpp"
#include "cv/kalman.hpp"
#include "cv/kernels.hpp"
#include "cv/persistence.hpp"
#include "cv/tracker.hpp"
#include "cv/tuning.hpp"

// Owner-side mask optimization.
#include "maskopt/greedy.hpp"
#include "maskopt/heatmap.hpp"
#include "maskopt/policy_map.hpp"

// Query language.
#include "query/ast.hpp"
#include "query/lexer.hpp"
#include "query/parser.hpp"
#include "query/validator.hpp"

// Sensitivity rules.
#include "sensitivity/constraints.hpp"
#include "sensitivity/rules.hpp"

// Execution engine and facade.
#include "engine/executor.hpp"
#include "engine/mask_registration.hpp"
#include "engine/privid.hpp"
#include "engine/registry.hpp"
#include "engine/relexec.hpp"
#include "engine/sandbox.hpp"
#include "engine/standing.hpp"

// Evaluation analyst executables.
#include "analyst/executables.hpp"
