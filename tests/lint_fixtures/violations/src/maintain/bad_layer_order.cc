// Seeded [layer-order] violation: the maintain layer including a header
// of serve, a later layer in the documented order — an include cycle in
// the making.
#include "serve/rule_server.h"

namespace gpar {

int MaintainReachesIntoServe() { return 0; }

}  // namespace gpar
