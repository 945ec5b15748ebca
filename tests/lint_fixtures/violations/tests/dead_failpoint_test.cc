// Seeded [failpoint-armed] violation: a test arming a failpoint name that
// no src/ site registers, so the injection can never fire. The "test."
// prefix is the registry's own and stays exempt.
#include "common/failpoint.h"

namespace gpar {

void ArmsADeletedSite() {
  FailpointRegistry::Instance().Arm("fixture.deleted_site", {});
  FailpointRegistry::Instance().Arm("test.registry_only", {});
}

}  // namespace gpar
