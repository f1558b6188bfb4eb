// The cross-campaign result cache is the trial-record log read across
// campaign identities (see core::TrialLog in snake/journal.h): a hit replays
// a memoized record exactly like a journal resume, and any journal is a
// valid cache file. This alias keeps the dist-layer name for code that
// already spells it.
#pragma once

#include "snake/journal.h"

namespace snake::dist {

using ResultCache = core::TrialLog;

}  // namespace snake::dist
